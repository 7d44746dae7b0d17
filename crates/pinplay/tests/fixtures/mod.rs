//! The committed container fixtures and the recording they hold (see
//! `README.md` here): v1–v3 saves written before those writers were
//! deleted, so the legacy readers stay under test, and the v4 save that
//! pins the one remaining writer's bytes.

use std::sync::Arc;

use minivm::{assemble, LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, PinballContainer};

/// The v1 single-blob save (no checkpoints).
pub const V1: &[u8] = include_bytes!("fuzz_v1.drpb");
/// The v2 save: JSON payloads.
pub const V2: &[u8] = include_bytes!("fuzz_v2.drpb");
/// The v3 save: binser payloads.
pub const V3: &[u8] = include_bytes!("fuzz_v3.drpb");
/// The v4 save.
pub const V4: &[u8] = include_bytes!("fuzz_v4.drpb");

/// Re-records the fixtures' container: two `xadd` workers, with a
/// checkpoint every 32 instructions.
pub fn record() -> (Arc<Program>, PinballContainer) {
    let program = Arc::new(
        assemble(
            r"
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
                movi r3, 24
            loop:
                la r1, acc
                xadd r2, r1, r0
                subi r3, r3, 1
                bgti r3, 0, loop
                halt
            .endfunc
            ",
        )
        .expect("assembles"),
    );
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(5),
        &mut LiveEnv::new(3),
        1_000_000,
        "fuzz",
    )
    .expect("records");
    let container = PinballContainer::with_checkpoints(rec.pinball, &program, 32);
    assert!(
        !container.checkpoints.is_empty(),
        "fixture recording should carry embedded checkpoints"
    );
    (program, container)
}
