//! Quickstart: record a multi-threaded execution once, then debug it
//! cyclically — every replay observes the identical execution.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use drdebug::{DebugSession, StopReason};
use minivm::{assemble, LiveEnv, Reg, RoundRobin};
use pinplay::record_whole_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small producer/consumer program with a syscall (non-determinism!).
    let program = Arc::new(assemble(
        r"
        .data
        total: .word 0
        .text
        .func main
            movi r1, 5
            spawn r2, worker, r1
            rand r3              ; non-deterministic seed
            andi r3, r3, 0xff
            la r4, total
            xadd r5, r4, r3
            join r2
            la r4, total
            load r6, r4, 0
            print r6
            halt
        .endfunc
        .func worker
            la r1, total
            xadd r2, r1, r0
            halt
        .endfunc
        ",
    )?);

    // 1. Record: one live run is captured into a pinball.
    let recording = record_whole_program(
        &program,
        &mut RoundRobin::new(4),
        &mut LiveEnv::new(1234),
        100_000,
        "quickstart",
    )?;
    println!(
        "recorded {} instructions into a {}-byte pinball",
        recording.region_instructions,
        recording.pinball.size_bytes().expect("pinball serializes")
    );

    // 2. Debug session #1: break after the atomic add, inspect state.
    let mut session = DebugSession::new(Arc::clone(&program), recording.pinball);
    let xadd_pc = 5; // main's xadd
    session.add_breakpoint(xadd_pc, None);
    let stop = session.cont();
    println!("first session stopped: {stop:?}");
    let r3_first = session.read_reg(0, Reg(3)).expect("main thread exists");
    println!("  rand() result r3 = {r3_first}");

    // 3. Cyclic debugging: restart and observe the *same* values — the
    //    rand() outcome and thread interleaving are replayed from the log.
    session.restart();
    let stop2 = session.cont();
    assert_eq!(stop, stop2, "same stop on every iteration");
    assert_eq!(
        session.read_reg(0, Reg(3)),
        Some(r3_first),
        "same rand() result"
    );
    println!("second session: identical stop and identical state");

    // 4. Run to the end and check the program output replays too.
    loop {
        match session.cont() {
            StopReason::Breakpoint { .. } => continue,
            other => {
                println!("replay ended: {other:?}");
                break;
            }
        }
    }
    println!(
        "replayed program output: {:?}",
        session_exec_output(&session)
    );
    Ok(())
}

fn session_exec_output(session: &DebugSession) -> Vec<i64> {
    // The session's pinball holds the recorded exit; output is read through
    // the underlying replayed executor via the symbol table.
    session
        .read_symbol("total")
        .map(|v| vec![v])
        .unwrap_or_default()
}
