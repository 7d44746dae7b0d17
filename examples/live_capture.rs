//! The complete Fig. 2 workflow, phase 1 included: run the program *live*,
//! fast-forward to the buggy region with a breakpoint, flip `record on`,
//! let the bug fire (finalising the pinball), then debug the captured
//! region cyclically with slicing.
//!
//! ```sh
//! cargo run --example live_capture
//! ```

use std::sync::Arc;

use drdebug::{DebugSession, LiveSession, LiveStop, StopReason};
use minivm::{assemble, LiveEnv, RoundRobin};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a long warm-up before the buggy part: recording from
    // the start would waste log space on the warm-up (the paper's point:
    // capture only the execution region that matters).
    let program = Arc::new(assemble(
        r"
        .data
        table: .word 3, 1, 4, 1, 5
        .text
        .func main
            movi r0, 5000        ; 0: long warm-up
        warm:
            subi r0, r0, 1       ; 1
            bgti r0, 0, warm     ; 2
        buggy_region:
            movi r5, 20          ; 3: process 20 requests
        request:
            rand r1              ; 4: pick an index (non-deterministic!)
            andi r1, r1, 7       ; 5: bug: mask allows 0..7, table has 5
            la r2, table         ; 6
            add r2, r2, r1       ; 7
            load r3, r2, 0       ; 8: out-of-bounds reads return 0
            assert r3            ; 9: crash when the entry is 'empty'
            subi r5, r5, 1       ; 10
            bgti r5, 0, request  ; 11
            halt                 ; 12
        .endfunc
        ",
    )?);

    // Phase 1: live run. Fast-forward at full speed to the buggy region.
    let mut live = LiveSession::new(
        Arc::clone(&program),
        RoundRobin::new(8),
        LiveEnv::new(2024),
        "live-capture",
    );
    let region_start = program.label("buggy_region").expect("label");
    live.add_breakpoint(region_start);
    let stop = live.cont(1_000_000);
    println!("fast-forwarded to the buggy region: {stop:?}");

    // Record on; run until the bug fires (several rand draws may pass).
    live.remove_breakpoint(region_start);
    live.record_on();
    println!("record on — capturing the region");
    let stop = live.cont(1_000_000);
    let LiveStop::Trapped(error) = stop else {
        // The masked index happened to stay in bounds this run; for the
        // demo, that means no bug to capture.
        println!("no failure this run ({stop:?}); try another seed");
        return Ok(());
    };
    println!("bug fired during recording: {error}");
    let pinball = live.captured().expect("pinball finalised").clone();
    println!(
        "captured pinball: {} instructions, {} bytes",
        pinball.logged_instructions(),
        pinball.size_bytes().expect("pinball serializes")
    );

    // Phase 2: cyclic debugging off the pinball.
    let mut dbg = DebugSession::new(Arc::clone(&program), pinball);
    for iteration in 1..=2 {
        let stop = dbg.cont();
        assert!(matches!(stop, StopReason::Trapped(_)));
        println!(
            "debug iteration {iteration}: failure reproduced, r1 = {}",
            dbg.read_reg(0, minivm::Reg(1)).expect("main thread exists")
        );
        dbg.restart();
    }

    // Slice the failure: the masked rand index is the root cause.
    dbg.cont();
    let slice = dbg.slice_failure().expect("slice");
    let slicer = dbg.slicer();
    let pcs = slice.pcs(slicer.trace());
    println!("\nfailure slice covers pcs: {pcs:?}");
    assert!(pcs.contains(&4), "the rand() draw is in the slice");
    assert!(pcs.contains(&5), "the bad mask is in the slice");
    println!("root cause: the index mask at pc 5 admits out-of-range indices");
    Ok(())
}
