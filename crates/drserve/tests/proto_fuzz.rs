//! Wire-protocol corruption fuzzing, mirroring the pinball container's
//! `corruption_fuzz` suite.
//!
//! Every single-bit flip and every truncation of a valid request frame
//! must surface as a typed [`RecvError`] from the frame reader. Pushed
//! through a real [`Server`] connection — the same dispatcher path TCP
//! uses — a mutated frame gets at most one typed [`Response::Error`] and
//! then a clean disconnect. Never a panic on any server thread, never a
//! hang, never an allocation driven by attacker-controlled lengths.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

use drserve::{
    proto, RecvError, Request, Response, ServeConfig, ServeError, Server, SliceAt, REQUEST_KIND,
};
use minivm::Reg;
use rand::{rngs::StdRng, Rng, SeedableRng};
use slicer::SliceOptions;

/// Set by the panic hook when any thread in the process panics — the
/// dispatcher and worker threads included, whose panics would otherwise
/// only show up as a dropped connection.
static PANICKED: AtomicBool = AtomicBool::new(false);

fn watch_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICKED.store(true, Ordering::SeqCst);
            default(info);
        }));
    });
}

fn assert_no_panics() {
    assert!(
        !PANICKED.load(Ordering::SeqCst),
        "a thread panicked while serving fuzzed input"
    );
}

/// One frame per request shape the sweeps cover: a slice request, and
/// every stepping, reverse and inspection op. Session 42 is never opened,
/// so each intact frame decodes, dispatches and gets a typed error.
fn sample_frames() -> Vec<Vec<u8>> {
    let session = 42;
    let addr = 0x1000;
    [
        Request::ComputeSlice {
            session,
            at: SliceAt::Here {
                key: Some(slicer::LocKey::Mem(addr)),
            },
            options: SliceOptions::default(),
        },
        Request::Watch { session, addr },
        Request::Delete { session, id: 3 },
        Request::StepI { session },
        Request::ReverseStepI { session },
        Request::ReverseRun { session },
        Request::ReadReg {
            session,
            tid: 7,
            reg: Reg(200),
        },
        Request::ReadMem { session, addr },
        Request::Threads { session },
    ]
    .iter()
    .map(|request| {
        let mut buf = Vec::new();
        proto::write_message(&mut buf, REQUEST_KIND, request).expect("encodes");
        buf
    })
    .collect()
}

/// Sends `input` over a fresh loopback connection, half-closes the write
/// side, and returns every response the server wrote before it hung up.
fn exchange(server: &Server, input: &[u8]) -> Vec<Response> {
    let mut stream = server.loopback_connect();
    stream.write_all(input).expect("server end is open");
    stream.shutdown_write();
    let mut output = Vec::new();
    stream
        .read_to_end(&mut output)
        .expect("reads until the server disconnects");
    let mut cursor = &output[..];
    let mut out = Vec::new();
    loop {
        match proto::read_message::<_, Response>(&mut cursor, drserve::RESPONSE_KIND) {
            Ok(r) => out.push(r),
            Err(RecvError::Disconnected) => return out,
            Err(e) => panic!("server wrote an undecodable response: {e}"),
        }
    }
}

/// The per-input contract: at most one typed error, then EOF. No reply
/// at all is allowed only when the input ends inside a frame — the
/// dispatcher waits for the rest and closes silently at EOF.
fn assert_error_then_eof(replies: &[Response], input: &[u8], what: &str) {
    match replies {
        [] => assert_eq!(
            proto::frame_extent(input, REQUEST_KIND),
            Ok(None),
            "{what}: a silent close must mean the input was a truncated frame"
        ),
        [Response::Error(_)] => {}
        other => panic!("{what}: expected at most one typed error, got {other:?}"),
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_recv_error() {
    for frame in sample_frames() {
        assert!(frame.len() > 32, "fuzz target too small to be interesting");
        for offset in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[offset] ^= 1 << bit;
                let mut cursor = &bad[..];
                let err = proto::read_message::<_, Request>(&mut cursor, REQUEST_KIND).expect_err(
                    &format!("flip at byte {offset} bit {bit} must not decode cleanly"),
                );
                assert!(
                    matches!(err, RecvError::Frame { .. }),
                    "flip at byte {offset} bit {bit}: expected a frame error, got {err:?}"
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_disconnect_or_typed_frame_error() {
    for frame in sample_frames() {
        for len in 0..frame.len() {
            let mut cursor = &frame[..len];
            let err = proto::read_message::<_, Request>(&mut cursor, REQUEST_KIND)
                .expect_err(&format!("truncation to {len} bytes must not decode"));
            if len == 0 {
                assert_eq!(err, RecvError::Disconnected, "EOF at boundary is clean");
            } else {
                assert!(
                    matches!(err, RecvError::Frame { .. }),
                    "truncation to {len} bytes: expected a frame error, got {err:?}"
                );
            }
        }
    }
}

#[test]
fn server_answers_one_error_then_disconnects_for_every_flip() {
    watch_panics();
    let server = Server::new(ServeConfig::default());
    for frame in sample_frames() {
        // The intact frame decodes and dispatches: one typed error.
        let replies = exchange(&server, &frame);
        assert!(
            matches!(replies[..], [Response::Error(_)]),
            "intact frame: {replies:?}"
        );
        let mut silent = 0;
        for offset in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[offset] ^= 1 << bit;
                let replies = exchange(&server, &bad);
                // A flip in the *payload variant tags* could decode to a
                // different well-formed request; that is fine — the CRC
                // guards transport damage, not semantics — but the
                // response must still be typed, and here every decodable
                // mutation hits an unknown session.
                assert_error_then_eof(&replies, &bad, &format!("flip at byte {offset} bit {bit}"));
                silent += usize::from(replies.is_empty());
            }
        }
        // Only flips that inflate the declared length leave a truncated
        // frame; most damage is answered with a typed error.
        assert!(silent > 0, "some flips must grow the length varint");
        assert!(silent < frame.len(), "most flips are answered, not dropped");
    }
    assert_no_panics();
}

#[test]
fn random_garbage_never_panics_the_server() {
    watch_panics();
    let server = Server::new(ServeConfig::default());
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for round in 0..200 {
        let len = rng.gen_range(0..512);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let replies = exchange(&server, &garbage);
        assert_error_then_eof(&replies, &garbage, &format!("round {round}"));
    }
    assert_no_panics();
}

#[test]
fn valid_request_then_garbage_answers_then_closes() {
    watch_panics();
    let server = Server::new(ServeConfig::default());
    let mut input = Vec::new();
    proto::write_message(&mut input, REQUEST_KIND, &Request::Stats).expect("encodes");
    input.extend_from_slice(b"\xff\xff not a frame \x00\x00");
    let replies = exchange(&server, &input);
    assert_eq!(replies.len(), 2, "stats answer, then the malformed error");
    assert!(matches!(replies[0], Response::Stats(_)));
    assert!(matches!(
        replies[1],
        Response::Error(ServeError::Malformed { .. })
    ));
    assert_no_panics();
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    watch_panics();
    // A frame whose varint declares a multi-terabyte payload must be
    // refused up front; if the reader tried to allocate it first, this
    // test would abort rather than fail.
    let mut bad = vec![REQUEST_KIND];
    pinzip::varint::write_u64(&mut bad, 1 << 42);
    bad.extend_from_slice(&[0u8; 16]);
    let server = Server::new(ServeConfig::default());
    let replies = exchange(&server, &bad);
    assert_eq!(replies.len(), 1);
    match &replies[0] {
        Response::Error(ServeError::Malformed { reason }) => {
            assert!(reason.contains("message cap"), "reason: {reason}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_no_panics();
}
