//! Corruption fuzzing for the chunked pinball containers (v2, v3, v4).
//!
//! Every single-bit flip and every truncation of a container must
//! surface as a typed [`PinballError`] — never a panic — and flips
//! inside the framed region must name the damaged chunk. Truncations
//! additionally exercise lossy loading: the intact prefix must still
//! replay deterministically. Every chunked generation the loader reads
//! runs through the same harness: the v4 writer's output, and the
//! committed v2 and v3 fixtures of the same recording (see
//! `fixtures/README.md`) — v3 adds a per-frame codec byte and binary
//! payloads, v4 the shared-dictionary frame and columnar events, and
//! each must be exactly as tamper-evident as the format it replaced.
//!
//! Every reader runs the same frame walk, so each sweep also checks that
//! they agree on damaged input: `inspect` fails exactly where
//! `from_bytes` does, and a [`StreamReader`] fed the v4 bytes in 64-byte
//! pieces ends where `from_bytes` does — its first error, or its
//! end-of-input verdict, is `from_bytes`'s result.

mod fixtures;

use std::sync::Arc;

use fixtures::record;
use minivm::NullTool;
use pinplay::{
    detect_version, inspect, migrate, ChunkKind, ContainerVersion, EventColumns, PinballContainer,
    PinballError, ReplayStatus, Replayer, StreamReader, StreamWriter,
};
use pinzip::frame::{decode_payload, decode_payload_with_dict, peek_frame, write_coded_frame};

/// The chunked serializations of one container, tagged for messages.
fn encodings(container: &PinballContainer) -> [(&'static str, Vec<u8>); 3] {
    [
        ("v4", container.to_bytes().expect("v4 serializes")),
        ("v3", fixtures::V3.to_vec()),
        ("v2", fixtures::V2.to_vec()),
    ]
}

const MAGIC_LEN: usize = 6;
const TRAILER_LEN: usize = 12;

/// Feeds `bytes` to a fresh [`StreamReader`] in 64-byte pieces and
/// returns where it ends: its first error, or else its end-of-input
/// verdict.
fn streamed(bytes: &[u8]) -> Result<PinballContainer, PinballError> {
    let mut reader = StreamReader::new();
    for piece in bytes.chunks(64) {
        reader.absorb(piece)?;
    }
    reader.finish()
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let (_, container) = record();
    for (tag, bytes) in encodings(&container) {
        assert!(
            bytes.len() > 256,
            "{tag} target too small to be interesting"
        );

        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[offset] ^= 1 << bit;
                // Must return (not panic), and a flip anywhere must be
                // detected: CRCs guard every payload, varint/kind/codec/
                // trailer damage trips structural checks, and magic damage
                // falls back to the (failing) v1 decoder.
                let err = PinballContainer::from_bytes(&bad).expect_err(&format!(
                    "{tag}: flip at byte {offset} bit {bit} must not load cleanly"
                ));
                // The reason travels verbatim in a server's error reply:
                // it names what went wrong, never dumps the decoded value.
                let reason = err.to_string();
                assert!(
                    reason.len() <= 256,
                    "{tag}: flip at byte {offset} bit {bit}: {}-character error",
                    reason.len()
                );
                assert_eq!(
                    inspect(&bad).err().as_ref(),
                    Some(&err),
                    "{tag}: flip at byte {offset} bit {bit}: inspect must fail as the load does"
                );
                if offset >= MAGIC_LEN {
                    assert!(
                        matches!(err, PinballError::Chunk { .. }),
                        "{tag}: flip at byte {offset} bit {bit}: expected a \
                         chunk-naming error, got {err}"
                    );
                }
            }
        }
    }
}

#[test]
fn chunk_errors_name_a_plausible_chunk() {
    let (_, container) = record();
    for (tag, bytes) in encodings(&container) {
        let mut max_seen = 0usize;
        for offset in MAGIC_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x10;
            match PinballContainer::from_bytes(&bad) {
                Err(PinballError::Chunk { chunk, .. }) => max_seen = max_seen.max(chunk),
                Err(other) => panic!("{tag} offset {offset}: unexpected error {other}"),
                Ok(_) => panic!("{tag} offset {offset}: corrupt container loaded cleanly"),
            }
        }
        assert!(
            max_seen > 1,
            "{tag}: damage deep in the file should be attributed to later \
             chunks, best was chunk {max_seen}"
        );
    }
}

#[test]
fn every_truncation_is_typed_and_lossy_load_replays_the_prefix() {
    let (program, container) = record();
    let total_events = container.pinball.events.len();
    for (tag, bytes) in encodings(&container) {
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            assert_eq!(
                inspect(cut).err(),
                PinballContainer::from_bytes(cut).err(),
                "{tag}: truncation to {len} bytes: inspect must fail as the load does"
            );
            if len < MAGIC_LEN {
                // Not recognizably a container: both decoders may reject
                // it, but must do so with a typed error, not a panic.
                let _ = PinballContainer::from_bytes(cut)
                    .expect_err(&format!("{tag}: truncated blob loads"));
                continue;
            }
            PinballContainer::from_bytes(cut).expect_err(&format!(
                "{tag}: truncation to {len} bytes must not load cleanly"
            ));

            // Lossy loading either salvages the intact prefix or reports
            // the header itself as unusable; a salvaged prefix must replay.
            let Ok(lossy) = PinballContainer::from_bytes_lossy(cut) else {
                continue;
            };
            assert!(
                lossy.damage.is_some(),
                "{tag}: truncation to {len} bytes must record damage"
            );
            assert!(lossy.events_recovered <= lossy.events_expected);
            assert_eq!(lossy.events_expected, total_events);
            let mut r = Replayer::new(Arc::clone(&program), &lossy.container.pinball);
            let status = r.run(&mut NullTool);
            assert!(
                matches!(status, ReplayStatus::Completed),
                "{tag}: salvaged prefix of {len} bytes must replay to its \
                 end, got {status:?}"
            );
        }
    }
}

#[test]
fn migrate_upgrades_every_fixture_to_v4_exactly() {
    let (_, container) = record();
    let direct = container.to_bytes().expect("v4 serializes");
    for (tag, bytes) in [("v2", fixtures::V2), ("v3", fixtures::V3)] {
        let v4 = migrate(bytes).unwrap_or_else(|e| panic!("{tag} migrates to v4: {e}"));
        assert_eq!(detect_version(&v4), ContainerVersion::V4);

        // Migration preserves the whole container — events, checkpoints,
        // interval — and lands on the same bytes a direct v4 save produces.
        let upgraded = PinballContainer::from_bytes(&v4).expect("migrated container loads");
        assert_eq!(upgraded, container, "{tag} migration preserves contents");
        assert_eq!(upgraded.digest(), container.digest());
        assert_eq!(v4, direct, "{tag} migration == direct v4 save");
    }

    // v1 carries no checkpoints, so it lands on a checkpoint-free save.
    let from_v1 = migrate(fixtures::V1).expect("v1 migrates to v4");
    let bare = PinballContainer::new(container.pinball.clone());
    assert_eq!(from_v1, bare.to_bytes().expect("v4 serializes"));
    assert_eq!(
        PinballContainer::from_bytes(&from_v1)
            .expect("migrated container loads")
            .digest(),
        container.digest()
    );

    // Migrating a v4 container again is a typed error, not a silent rewrite.
    assert!(matches!(
        migrate(fixtures::V4),
        Err(PinballError::Format(_))
    ));
}

#[test]
fn unsealed_prefixes_are_typed_and_flips_in_them_stay_typed() {
    let (program, container) = record();
    let writer = StreamWriter::new(&container).expect("container streams");
    let sealed = writer.sealed_bytes();
    let total_events = container.pinball.events.len();
    let pieces = writer.chunks(writer.num_groups());
    assert!(pieces.len() > 2, "fuzz target should span several groups");

    // Every chunk-group prefix — a stream killed before the footer — is a
    // valid but unsealed container: the strict loader names the missing
    // footer via `PinballError::Unsealed`, and the lossy loader salvages a
    // prefix that replays deterministically to its end.
    let mut cut = 0usize;
    for piece in &pieces {
        cut += piece.len();
        let prefix = &sealed[..cut];
        match PinballContainer::from_bytes(prefix) {
            Err(PinballError::Unsealed {
                events_recovered,
                events_expected,
            }) => {
                assert_eq!(events_expected, total_events);
                assert!(events_recovered <= events_expected);
            }
            other => panic!("prefix of {cut} bytes: expected Unsealed, got {other:?}"),
        }
        let lossy = PinballContainer::from_bytes_lossy(prefix).expect("prefix salvages");
        assert!(matches!(lossy.damage, Some(PinballError::Unsealed { .. })));
        let mut r = Replayer::new(Arc::clone(&program), &lossy.container.pinball);
        let status = r.run(&mut NullTool);
        assert!(
            matches!(status, ReplayStatus::Completed),
            "unsealed prefix of {cut} bytes must replay, got {status:?}"
        );
    }

    // Every single-bit flip of a mid-stream prefix is still a typed error,
    // never a panic: CRC or structural damage names the chunk, a clean
    // walk to end-of-file names the missing footer.
    let mid: usize = pieces[..pieces.len() / 2].iter().map(|p| p.len()).sum();
    let prefix = &sealed[..mid];
    for offset in 0..prefix.len() {
        for bit in 0..8 {
            let mut bad = prefix.to_vec();
            bad[offset] ^= 1 << bit;
            let err = PinballContainer::from_bytes(&bad).expect_err(&format!(
                "flip at byte {offset} bit {bit} of an unsealed prefix must not load cleanly"
            ));
            if offset >= MAGIC_LEN {
                assert!(
                    matches!(
                        err,
                        PinballError::Chunk { .. } | PinballError::Unsealed { .. }
                    ),
                    "flip at byte {offset} bit {bit}: expected chunk or unsealed \
                     error, got {err}"
                );
            }
        }
    }
}

#[test]
fn inspect_fails_exactly_where_from_bytes_does() {
    // Any damage to the trailer unseals the file for both.
    let v4 = fixtures::V4;
    for offset in v4.len() - TRAILER_LEN..v4.len() {
        for bit in 0..8 {
            let mut bad = v4.to_vec();
            bad[offset] ^= 1 << bit;
            let err = PinballContainer::from_bytes(&bad).expect_err(&format!(
                "trailer flip at byte {offset} bit {bit} must not load cleanly"
            ));
            assert_eq!(
                inspect(&bad).expect_err("a damaged trailer must not inspect cleanly"),
                err,
                "trailer flip at byte {offset} bit {bit}"
            );
        }
    }

    // A stream killed before its footer is the same `Unsealed` for both.
    let (_, container) = record();
    let writer = StreamWriter::new(&container).expect("container streams");
    let mut cut = 0usize;
    for piece in writer.chunks(writer.num_groups()) {
        cut += piece.len();
        let prefix = &writer.sealed_bytes()[..cut];
        let err = PinballContainer::from_bytes(prefix).expect_err("a prefix is unsealed");
        assert!(
            matches!(err, PinballError::Unsealed { .. }),
            "prefix of {cut} bytes: {err}"
        );
        assert_eq!(
            inspect(prefix).expect_err("a prefix is unsealed"),
            err,
            "prefix of {cut} bytes"
        );
    }
}

/// `fuzz_v4.drpb` with every events frame re-encoded as a binser record
/// stream (codec 1, no dictionary — a v3 events frame) and the trailer
/// re-pointed at the moved index frame. The stale offsets inside the index
/// are advisory, so only the events frames' codec sets this file apart
/// from the fixture.
fn v4_with_binser_events() -> Vec<u8> {
    const EVENTS: u8 = 2;
    const INDEX: u8 = 4;
    const DICT: u8 = 5;
    let v4 = fixtures::V4;
    let mut out = v4[..MAGIC_LEN].to_vec();
    let mut pos = MAGIC_LEN;
    let mut dict = Vec::new();
    loop {
        let raw = peek_frame(v4, pos, true).expect("fixture frames are intact");
        let frame = &v4[pos..pos + raw.encoded_len];
        pos += raw.encoded_len;
        match raw.kind {
            DICT => {
                dict = decode_payload(v4, &raw).expect("dictionary decodes");
                out.extend_from_slice(frame);
            }
            EVENTS => {
                let payload = decode_payload_with_dict(v4, &raw, &dict).expect("events decode");
                let events = EventColumns::decode(&payload)
                    .expect("columns decode")
                    .to_events();
                write_coded_frame(&mut out, EVENTS, 1, &pinzip::binser::to_vec(&events));
            }
            INDEX => {
                let index_at = out.len() as u64;
                out.extend_from_slice(frame);
                out.extend_from_slice(&index_at.to_le_bytes());
                out.extend_from_slice(b"PBIX");
                return out;
            }
            _ => out.extend_from_slice(frame),
        }
    }
}

#[test]
fn v4_events_frames_must_be_columnar() {
    let bytes = v4_with_binser_events();
    let want = PinballError::Chunk {
        chunk: 2,
        kind: ChunkKind::Events,
        reason: "events frame does not carry the columnar codec".into(),
    };
    assert_eq!(PinballContainer::from_bytes(&bytes), Err(want.clone()));
    assert_eq!(streamed(&bytes), Err(want.clone()));
    assert_eq!(inspect(&bytes), Err(want));
    let lossy = PinballContainer::from_bytes_lossy(&bytes).expect("the header is intact");
    assert_eq!(lossy.events_recovered, 0);
}

#[test]
fn a_streamed_reader_ends_where_from_bytes_does() {
    let (_, container) = record();
    let bytes = container.to_bytes().expect("v4 serializes");

    // The clean file, split at any offset, seals to the batch container.
    for split in 0..=bytes.len() {
        let mut reader = StreamReader::new();
        reader.absorb(&bytes[..split]).expect("head absorbs");
        reader.absorb(&bytes[split..]).expect("tail absorbs");
        assert!(reader.is_sealed(), "split at {split}");
        assert_eq!(
            reader.finish().expect("sealed"),
            container,
            "split at {split}"
        );
    }

    // Past the magic, every flip and every truncation ends the stream
    // exactly where it ends the batch load. Inside the magic the stream
    // refuses what `from_bytes` tries as a v1 blob: both fail.
    let check = |bad: &[u8], what: &str, in_magic: bool| {
        let batch = PinballContainer::from_bytes(bad);
        let stream = streamed(bad);
        if in_magic {
            assert!(batch.is_err(), "{what}: loads as a v1 blob");
            assert!(
                matches!(stream, Err(PinballError::Format(_))),
                "{what}: the stream must refuse a non-v4 magic, got {stream:?}"
            );
        } else {
            assert_eq!(stream, batch, "{what}");
        }
    };
    for offset in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[offset] ^= 1 << bit;
            check(
                &bad,
                &format!("flip at byte {offset} bit {bit}"),
                offset < MAGIC_LEN,
            );
        }
    }
    for len in 0..bytes.len() {
        check(
            &bytes[..len],
            &format!("truncation to {len} bytes"),
            len < MAGIC_LEN,
        );
    }
}
