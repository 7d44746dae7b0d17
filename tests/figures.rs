//! Integration tests for the paper's worked examples (Figs. 5, 7, 8):
//! the precision claims of §5, checked end to end through the public API.

use std::sync::Arc;

use maple::{expose_iroot, ExposeOptions};
use minivm::{LiveEnv, RoundRobin};
use pinplay::record_whole_program;
use slicer::{Criterion, SliceOptions, SliceSession, SlicerOptions};
use workloads::{fig5_exposing_iroot, fig5_race, fig7_switch, fig8_save_restore};

/// Fig. 5: the slice of the failed atomicity assertion captures the racing
/// write in the other thread — "the dynamic slice captures exactly the
/// root cause of the concurrency bug".
#[test]
fn fig5_slice_captures_inter_thread_root_cause() {
    let program = fig5_race();
    let exposure = expose_iroot(
        &program,
        fig5_exposing_iroot(&program),
        ExposeOptions::default(),
    )
    .expect("race exposable");

    let session = SliceSession::collect(
        Arc::clone(&program),
        &exposure.recording.pinball,
        SlicerOptions::default(),
    );
    let failure = session.failure_record().expect("trace non-empty");
    assert!(matches!(failure.instr, minivm::Instr::Assert { .. }));
    let slice = session.slice(Criterion::Record { id: failure.id });

    let pcs = slice.pcs(session.trace());
    let racing_store = program.label("t1_store_x").unwrap();
    assert!(pcs.contains(&racing_store), "racing write in slice");
    // The chain behind the racing write (y = x + 1 etc.) is included too.
    assert!(pcs.contains(&program.label("t2_load1").unwrap()));
    assert!(pcs.contains(&program.label("t2_load2").unwrap()));
    // And the inter-thread data edge exists in the dependence graph.
    let crossing = slice.data_edges.iter().any(|e| {
        let user = session.trace().record(e.user).unwrap();
        let def = session.trace().record(e.def).unwrap();
        user.tid != def.tid
    });
    assert!(crossing, "slice has an inter-thread dependence edge");
}

/// Fig. 7: without CFG refinement the case body's control dependence on
/// the switch dispatch is missed; with refinement it is found, pulling the
/// switch (and the input read feeding it) into the slice.
#[test]
fn fig7_refinement_recovers_switch_control_dependence() {
    let program = fig7_switch();
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(8),
        &mut LiveEnv::with_inputs(0, [0, 1]),
        10_000,
        "fig7",
    )
    .expect("records");

    let slice_with = |refine: bool| {
        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions {
                refine_indirect: refine,
            },
        );
        let crit = session
            .last_at_pc(program.label("use_w").unwrap())
            .expect("w used")
            .id;
        let s = session.slice(Criterion::Record { id: crit });
        let pcs = s.pcs(session.trace());
        (s.len(), pcs)
    };

    let (refined_len, refined_pcs) = slice_with(true);
    let (imprecise_len, imprecise_pcs) = slice_with(false);

    let switch = program.label("switch_jmp").unwrap();
    assert!(
        refined_pcs.contains(&switch),
        "refined slice includes the switch dispatch (CD recovered)"
    );
    assert!(
        !imprecise_pcs.contains(&switch),
        "unrefined slice misses the control dependence (the Fig. 7 problem)"
    );
    assert!(refined_len > imprecise_len);
}

/// Fig. 8 / §5.2: the unpruned slice of `w = e + e` drags in the
/// save/restore pair, the guard, and the input read; pruning removes all
/// of it, leaving the true definition.
#[test]
fn fig8_pruning_removes_spurious_context() {
    let program = fig8_save_restore();
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(8),
        &mut LiveEnv::with_inputs(0, [1]),
        10_000,
        "fig8",
    )
    .expect("records");
    let session =
        SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
    assert_eq!(session.pairs().len(), 1, "Q's save/restore pair verified");

    let crit = session
        .last_at_pc(program.label("compute_w").unwrap())
        .expect("w computed")
        .id;
    let pruned = session.slice_with(
        Criterion::Record { id: crit },
        SliceOptions {
            prune_save_restore: true,
            ..SliceOptions::new()
        },
    );
    let unpruned = session.slice_with(
        Criterion::Record { id: crit },
        SliceOptions {
            prune_save_restore: false,
            ..SliceOptions::new()
        },
    );

    let p = pruned.pcs(session.trace());
    let u = unpruned.pcs(session.trace());
    let l = |name: &str| program.label(name).unwrap();

    // Paper's third column: the imprecise slice.
    assert!(u.contains(&l("q_restore")));
    assert!(u.contains(&l("q_save")));
    assert!(u.contains(&l("guard")), "spurious control context");
    assert!(u.contains(&l("read_c")), "spurious input chain");
    // Paper's fourth column: the refined slice.
    assert!(p.contains(&l("set_e")), "true definition kept");
    assert!(!p.contains(&l("q_restore")));
    assert!(!p.contains(&l("q_save")));
    assert!(!p.contains(&l("guard")));
    assert!(!p.contains(&l("read_c")));
    assert!(pruned.len() < unpruned.len());
    assert_eq!(pruned.stats.bypasses, 1);
}

/// The Fig. 8 slice is not just smaller — it is still *correct*: replaying
/// only the pruned slice reproduces the printed value of w.
#[test]
fn fig8_pruned_slice_still_replays_correctly() {
    let program = fig8_save_restore();
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(8),
        &mut LiveEnv::with_inputs(0, [1]),
        10_000,
        "fig8",
    )
    .expect("records");
    let session =
        SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
    let crit = session
        .trace()
        .records()
        .iter()
        .filter(|r| matches!(r.instr, minivm::Instr::Print { .. }))
        .max_by_key(|r| r.id)
        .expect("print executed")
        .id;
    let slice = session.slice(Criterion::Record { id: crit });
    let (slice_pb, _, _) = session.make_slice_pinball(&rec.pinball, &slice);
    let mut rep = pinplay::Replayer::new(Arc::clone(&program), &slice_pb);
    rep.run(&mut minivm::NullTool);
    assert_eq!(rep.exec().output(), &[14], "w = 7 + 7 along the slice");
}
