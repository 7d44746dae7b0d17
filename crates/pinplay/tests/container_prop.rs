//! Property tests for the chunked pinball container.
//!
//! Over randomized multi-threaded recordings (worker count, per-worker
//! loop length, scheduler seed and quantum, checkpoint interval all
//! drawn by proptest):
//!
//! 1. **Byte-identical round-trip** — `to_bytes` → `from_bytes` →
//!    `to_bytes` reproduces the exact container bytes. Chunk boundaries,
//!    embedded checkpoints, the shared dictionary, and the footer index
//!    are all deterministic functions of the log, so a load/save cycle is
//!    the identity.
//! 2. **Batch ≡ streamed** — a chunked upload, killed and resumed at any
//!    point, reseals to the batch bytes.
//! 3. **Seek equivalence** — restoring any embedded checkpoint via
//!    `Replayer::seek_to` and replaying to the end retires the same
//!    instruction count and lands on bit-identical final state as a
//!    cold replay of the whole region.
//!
//! The older generations, which nothing writes any more, are covered by
//! the committed v1–v3 fixtures of one recording (see
//! `fixtures/README.md`): each loads as the re-recorded container with
//! the same digest, reports its version through `inspect`, and migrates
//! to exactly the v4 writer's bytes.

mod fixtures;

use std::sync::Arc;

use proptest::prelude::*;

use minivm::{assemble, LiveEnv, NullTool, Program, RandomSched};
use pinplay::{
    detect_version, inspect, migrate, record_whole_program, ContainerVersion, Pinball,
    PinballContainer, ReplayStatus, Replayer, StreamReader, StreamWriter,
};

/// A main thread plus `workers` xadd-looping threads over one shared
/// word: enough cross-thread scheduling to make the replay log
/// multi-chunk and order-sensitive.
fn workload(workers: usize, iters: u64) -> Arc<Program> {
    let mut src = String::from(
        "
        .data
        acc: .word 0
        .text
        .func main
        ",
    );
    for w in 0..workers {
        src.push_str(&format!(
            "    movi r1, {w}\n    spawn r{}, worker, r1\n",
            w + 2
        ));
    }
    for w in 0..workers {
        src.push_str(&format!("    join r{}\n", w + 2));
    }
    src.push_str(
        "    la r4, acc
             load r5, r4, 0
             print r5
             halt
        .endfunc
        .func worker
        ",
    );
    src.push_str(&format!("    movi r3, {iters}\n"));
    src.push_str(
        "loop:
            la r1, acc
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, loop
            halt
        .endfunc
        ",
    );
    Arc::new(assemble(&src).expect("workload assembles"))
}

fn record(
    workers: usize,
    iters: u64,
    sched_seed: u64,
    quantum: u32,
    env_seed: u64,
) -> (Arc<Program>, Pinball) {
    let program = workload(workers, iters);
    let rec = record_whole_program(
        &program,
        &mut RandomSched::new(sched_seed, quantum),
        &mut LiveEnv::new(env_seed),
        1_000_000,
        "container-prop",
    )
    .expect("records");
    (program, rec.pinball)
}

fn final_state(r: &mut Replayer) -> (ReplayStatus, u64, minivm::ExecState) {
    let status = r.run(&mut NullTool);
    (status, r.replayed_instructions(), r.exec().save_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn save_load_is_byte_identical(
        workers in 1usize..4,
        iters in 5u64..60,
        sched_seed in any::<u64>(),
        quantum in 1u32..16,
        env_seed in any::<u64>(),
        interval in 8u64..200,
    ) {
        let (program, pinball) = record(workers, iters, sched_seed, quantum, env_seed);
        let container = PinballContainer::with_checkpoints(pinball, &program, interval);

        let v4 = container.to_bytes().expect("v4 serializes");
        let reloaded = PinballContainer::from_bytes(&v4).expect("v4 loads");
        prop_assert_eq!(&reloaded, &container, "v4 round-trips");
        prop_assert_eq!(reloaded.digest(), container.digest());
        prop_assert_eq!(
            reloaded.to_bytes().expect("re-serializes"),
            v4,
            "v4 load -> save is byte-identical"
        );
    }

    #[test]
    fn streamed_upload_reseals_byte_identically_and_resume_converges(
        workers in 1usize..4,
        iters in 5u64..60,
        sched_seed in any::<u64>(),
        quantum in 1u32..16,
        interval in 8u64..200,
        n_chunks in 1usize..12,
        kill_at in 0usize..12,
    ) {
        let (program, pinball) = record(workers, iters, sched_seed, quantum, 7);
        let container = PinballContainer::with_checkpoints(pinball, &program, interval);
        let batch = container.to_bytes().expect("serializes");
        let writer = StreamWriter::new(&container).expect("container streams");
        let pieces = writer.chunks(n_chunks);

        // First attempt dies after `kill_at` chunks. Whatever prefix it
        // leaves behind is an unsealed container whose recovered events
        // replay deterministically.
        let kill = kill_at.min(pieces.len());
        let mut first = StreamReader::default();
        for piece in &pieces[..kill] {
            first.absorb(piece).expect("chunk absorbs");
        }
        prop_assert!(!first.is_sealed(), "no footer, no seal");
        if first.has_header() {
            let partial = first.partial_container().expect("prefix collects");
            let mut r = Replayer::new(Arc::clone(&program), &partial.pinball);
            let status = r.run(&mut NullTool);
            prop_assert!(
                matches!(status, ReplayStatus::Completed),
                "killed upload's prefix must replay, got {:?}", status
            );
        }

        // Resume from scratch — what a client does after re-checking the
        // server's `next_seq` — and seal: byte-identical to the batch
        // serialization, so the digest and every downstream consumer agree.
        let mut resumed = StreamReader::default();
        for piece in &pieces {
            resumed.absorb(piece).expect("chunk absorbs");
        }
        resumed.absorb(writer.footer()).expect("footer absorbs");
        prop_assert!(resumed.is_sealed());
        let sealed = resumed.sealed_bytes().expect("sealed bytes available");
        prop_assert_eq!(sealed, batch.as_slice(), "seal == batch to_bytes");
        let reloaded = PinballContainer::from_bytes(sealed).expect("sealed loads");
        prop_assert_eq!(reloaded.digest(), container.digest());
    }

    #[test]
    fn seek_then_replay_matches_full_replay_at_every_chunk_boundary(
        workers in 1usize..4,
        iters in 5u64..40,
        sched_seed in any::<u64>(),
        quantum in 1u32..16,
        interval in 8u64..100,
    ) {
        let (program, pinball) = record(workers, iters, sched_seed, quantum, 7);
        let container = PinballContainer::with_checkpoints(pinball, &program, interval);

        let mut cold = Replayer::new(Arc::clone(&program), &container.pinball);
        let want = final_state(&mut cold);

        // Every embedded checkpoint sits on a chunk boundary; seeking to
        // each and replaying the remainder must converge on `want`.
        let boundaries: Vec<u64> =
            container.checkpoints.iter().map(|cp| cp.instr).collect();
        for boundary in boundaries {
            let mut r = Replayer::new(Arc::clone(&program), &container.pinball);
            let outcome = r.seek_to(&container, boundary);
            prop_assert_eq!(
                outcome.restored_from, Some(boundary),
                "boundary {} restores exactly", boundary
            );
            prop_assert_eq!(outcome.replayed, 0, "no tail inside a boundary seek");
            prop_assert_eq!(r.replayed_instructions(), boundary);
            let got = final_state(&mut r);
            prop_assert_eq!(&got.0, &want.0, "same terminal status");
            prop_assert_eq!(got.1, want.1, "same instruction count");
            prop_assert_eq!(&got.2, &want.2, "bit-identical final state");
        }
    }
}

#[test]
fn legacy_fixtures_load_digest_inspect_and_migrate_like_the_recording() {
    let (_, container) = fixtures::record();
    let v4 = container.to_bytes().expect("v4 serializes");
    assert_eq!(v4, fixtures::V4, "the v4 writer's bytes are pinned");
    let digest = container.digest();

    for (bytes, version) in [
        (fixtures::V2, ContainerVersion::V2),
        (fixtures::V3, ContainerVersion::V3),
    ] {
        assert_eq!(detect_version(bytes), version);
        let loaded = PinballContainer::from_bytes(bytes).expect("fixture loads");
        assert_eq!(loaded, container, "{version} loads as the recording");
        assert_eq!(loaded.digest(), digest, "{version} digest is format-free");

        let report = inspect(bytes).expect("fixture inspects");
        assert_eq!(report.version, version);
        assert_eq!(report.file_len, bytes.len());
        assert_eq!(report.num_events, container.pinball.events.len() as u64);
        assert_eq!(report.checkpoints, container.checkpoints.len());
        assert_eq!(report.checkpoint_interval, container.checkpoint_interval);

        assert_eq!(
            migrate(bytes).expect("fixture migrates"),
            v4,
            "migrate({version}) == to_bytes()"
        );
    }

    // v1 holds no checkpoints: the bare pinball, the same digest.
    assert_eq!(detect_version(fixtures::V1), ContainerVersion::V1);
    let v1 = PinballContainer::from_bytes(fixtures::V1).expect("v1 loads");
    assert_eq!(v1.pinball, container.pinball);
    assert!(v1.checkpoints.is_empty());
    assert_eq!(v1.digest(), digest);
    assert_eq!(
        inspect(fixtures::V1).expect("v1 inspects").num_events,
        container.pinball.events.len() as u64
    );
    assert_eq!(
        migrate(fixtures::V1).expect("v1 migrates"),
        PinballContainer::new(container.pinball.clone())
            .to_bytes()
            .expect("v4 serializes")
    );

    // The current format is no larger than the one it replaced.
    assert!(
        v4.len() <= fixtures::V3.len(),
        "v4 ({}) must not exceed v3 ({})",
        v4.len(),
        fixtures::V3.len()
    );
}
