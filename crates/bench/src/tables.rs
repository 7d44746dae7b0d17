//! Regeneration of every table and figure in the paper's evaluation (§7).
//!
//! Each function prints rows in the same shape as the paper's artifact.
//! Region lengths are scaled ~1000× down (the substrate is an interpreter,
//! not a Xeon pool); `EXPERIMENTS.md` records paper-vs-measured shapes.

use slicer::{compute_slice_indexed, DepIndex, SliceOptions, SlicerOptions};
use workloads::{all_bugs, all_parsec, all_specomp};

use crate::exp::{
    collect_session, index_timed, last_read_criteria, record_bug_region, record_parsec_region,
    replay_time, slice_pinball_replay, slice_timed, walk_timed,
};
use crate::{kb, secs};

/// Region lengths (main-thread instructions) for the Fig. 11/12 sweeps —
/// the paper's 10M..1B scaled down ~1000x.
pub const FIG11_LENGTHS: &[u64] = &[10_000, 50_000, 100_000, 500_000, 1_000_000];

/// Table 1: the bug inventory, with verification that each bug is
/// exposable and deterministically replayable.
pub fn table1() {
    println!("Table 1: Data race bugs used in our experiments");
    println!("{:-<100}", "");
    println!(
        "{:<10} {:<6} {:<28} {:<}",
        "Program", "Type", "Exposed via (iRoot)", "Bug Description"
    );
    for case in all_bugs() {
        let exposure = case.expose().expect("bug exposable");
        println!(
            "{:<10} {:<6} {:<28} {}",
            case.name,
            "Real*",
            format!("{} [{}]", exposure.iroot, exposure.error),
            case.description
        );
    }
    println!("(*) reproduced bug pattern; see DESIGN.md for the substitution mapping.");
}

fn bug_overhead_table(title: &str, whole: bool) {
    println!("{title}");
    println!("{:-<110}", "");
    println!(
        "{:<10} {:>12} {:>24} {:>12} {:>10} {:>12} {:>12}",
        "Program",
        "#executed",
        "#instr in slice pinball",
        "Logging(s)",
        "Space(KB)",
        "Replay(s)",
        "Slicing(s)"
    );
    for case in all_bugs() {
        let region = if whole {
            case.whole_region()
        } else {
            case.buggy_region()
        };
        let rr = record_bug_region(&case, region);
        let executed = rr.recording.region_instructions;
        let rep_t = replay_time(&rr.program, &rr.recording.pinball);
        let (session, _collect_t) =
            collect_session(&rr.program, &rr.recording.pinball, SlicerOptions::default());
        let failure = session.failure_record().expect("non-empty region").id;
        let (slice, slice_t) = slice_timed(&session, slicer::Criterion::Record { id: failure });
        let (slice_pb, _) = slice_pinball_replay(&session, &rr.recording.pinball, &slice);
        let kept = slice_pb.logged_instructions();
        println!(
            "{:<10} {:>12} {:>15} ({:>5.1}%) {:>12} {:>10} {:>12} {:>12}",
            case.name,
            executed,
            kept,
            100.0 * kept as f64 / executed as f64,
            secs(rr.log_time),
            kb(rr.space_bytes),
            secs(rep_t),
            secs(slice_t),
        );
    }
}

/// Table 2: time and space overhead with the buggy execution region
/// (root cause → failure point).
pub fn table2() {
    bug_overhead_table(
        "Table 2: Time and Space overhead for data race bugs with buggy execution region",
        false,
    );
}

/// Table 3: the same with the whole-program execution region.
pub fn table3() {
    bug_overhead_table(
        "Table 3: Time and Space overhead for data race bugs with whole program execution region",
        true,
    );
}

/// Figure 11: logging times for regions of varying sizes (8 PARSEC
/// programs, 'native'-like input, 4 threads).
pub fn fig11(lengths: &[u64]) {
    println!("Figure 11: Logging times (seconds, wall clock) vs region length (main thread)");
    println!("{:-<100}", "");
    print!("{:<15}", "program");
    for l in lengths {
        print!("{:>12}", format_len(*l));
    }
    println!();
    for p in all_parsec() {
        print!("{:<15}", format!("{} ({})", p.name, p.category));
        for &len in lengths {
            let rr = record_parsec_region(&p, 1_000, len);
            print!("{:>12}", secs(rr.log_time));
        }
        println!();
    }
}

/// Figure 12: replay times for the same pinballs.
pub fn fig12(lengths: &[u64]) {
    println!("Figure 12: Replay times (seconds, wall clock) vs region length (main thread)");
    println!("{:-<100}", "");
    print!("{:<15}", "program");
    for l in lengths {
        print!("{:>12}", format_len(*l));
    }
    println!();
    for p in all_parsec() {
        print!("{:<15}", format!("{} ({})", p.name, p.category));
        for &len in lengths {
            let rr = record_parsec_region(&p, 1_000, len);
            let t = replay_time(&rr.program, &rr.recording.pinball);
            print!("{:>12}", secs(t));
        }
        println!();
    }
}

/// Figure 13: reduction in slice sizes from pruning spurious save/restore
/// dependences (5 SPEC OMP analogs, 10 slices each, MaxSave = 10).
pub fn fig13(region_lengths: &[u64]) {
    println!(
        "Figure 13: Removal of spurious dependences - % reduction in slice sizes (10 slices, MaxSave=10)"
    );
    println!("{:-<80}", "");
    print!("{:<12}", "program");
    for l in region_lengths {
        print!("{:>16}", format!("{} instrs", format_len(*l)));
    }
    println!();
    let mut grand = vec![0.0f64; region_lengths.len()];
    for p in all_specomp() {
        print!("{:<12}", p.name);
        for (col, &len) in region_lengths.iter().enumerate() {
            // Iterations sized so each thread retires ~len instructions.
            let iters = (len / 20).max(10);
            let program = (p.build)(iters);
            let rec = pinplay::record_whole_program(
                &program,
                &mut minivm::RoundRobin::new(17),
                &mut minivm::LiveEnv::new(crate::exp::ENV_SEED),
                len * 40 + 1_000_000,
                p.name,
            )
            .expect("specomp records");
            let (session, _) = collect_session(&program, &rec.pinball, SlicerOptions::default());
            // One index per pruning setting, walked for every criterion.
            let [pruned, unpruned] = [true, false].map(|prune_save_restore| {
                let options = SliceOptions {
                    prune_save_restore,
                    ..SliceOptions::new()
                };
                DepIndex::build(session.trace(), session.pairs(), &options)
            });
            let mut total_pruned = 0usize;
            let mut total_unpruned = 0usize;
            for criterion in last_read_criteria(&session, 10) {
                total_pruned += compute_slice_indexed(&pruned, criterion).len();
                total_unpruned += compute_slice_indexed(&unpruned, criterion).len();
            }
            let reduction = 100.0 * (1.0 - total_pruned as f64 / total_unpruned as f64);
            grand[col] += reduction;
            print!("{:>16}", format!("{reduction:.2}%"));
        }
        println!();
    }
    print!("{:<12}", "average");
    for g in &grand {
        print!("{:>16}", format!("{:.2}%", g / all_specomp().len() as f64));
    }
    println!();
}

/// Figure 14: execution slicing — average replay times for 10 slice
/// pinballs vs the full region pinball, and the average % of dynamic
/// instructions kept in the slice pinballs.
pub fn fig14(region_length: u64) {
    println!(
        "Figure 14: Execution slicing - avg replay times for 10 slices (regions of {} main-thread instructions)",
        format_len(region_length)
    );
    println!("{:-<100}", "");
    println!(
        "{:<15} {:>16} {:>16} {:>14} {:>16}",
        "program", "region replay(s)", "slice replay(s)", "% instrs kept", "replay speedup"
    );
    let mut sum_kept = 0.0;
    let mut sum_speedup = 0.0;
    let programs = all_parsec();
    for p in &programs {
        let rr = record_parsec_region(p, 1_000, region_length);
        let full_t = replay_time(&rr.program, &rr.recording.pinball);
        let (session, _) =
            collect_session(&rr.program, &rr.recording.pinball, SlicerOptions::default());
        let total = rr.recording.region_instructions;
        let mut kept_sum = 0u64;
        let mut slice_t_sum = 0.0f64;
        let criteria = last_read_criteria(&session, 10);
        let n = criteria.len().max(1) as f64;
        let index = DepIndex::build(session.trace(), session.pairs(), &SliceOptions::default());
        for criterion in criteria {
            let slice = compute_slice_indexed(&index, criterion);
            let (pb, t) = slice_pinball_replay(&session, &rr.recording.pinball, &slice);
            kept_sum += pb.logged_instructions();
            slice_t_sum += t.as_secs_f64();
        }
        let kept_pct = 100.0 * (kept_sum as f64 / n) / total as f64;
        let slice_t = slice_t_sum / n;
        let speedup = 100.0 * (1.0 - slice_t / full_t.as_secs_f64());
        sum_kept += kept_pct;
        sum_speedup += speedup;
        println!(
            "{:<15} {:>16} {:>16} {:>13.1}% {:>15.1}%",
            p.name,
            secs(full_t),
            format!("{slice_t:.3}"),
            kept_pct,
            speedup
        );
    }
    let n = programs.len() as f64;
    println!(
        "{:<15} {:>16} {:>16} {:>13.1}% {:>15.1}%",
        "average",
        "",
        "",
        sum_kept / n,
        sum_speedup / n
    );
}

/// §7 "Slicing overhead and precision": dynamic-information tracing time,
/// dependence-index build time, average slice size, and average slice
/// (index walk) time for the PARSEC programs. One index per trace serves
/// all of its slices.
pub fn slicing_overhead(region_length: u64) {
    println!(
        "Slicing overhead (regions of {} main-thread instructions, 10 slices of last reads)",
        format_len(region_length)
    );
    println!("{:-<95}", "");
    println!(
        "{:<15} {:>14} {:>14} {:>16} {:>18}",
        "program", "trace time(s)", "index time(s)", "avg slice size", "avg walk time(s)"
    );
    let mut trace_sum = 0.0;
    let mut index_sum = 0.0;
    let mut size_sum = 0.0;
    let mut time_sum = 0.0;
    let programs = all_parsec();
    for p in &programs {
        let rr = record_parsec_region(p, 1_000, region_length);
        let (session, collect_t) =
            collect_session(&rr.program, &rr.recording.pinball, SlicerOptions::default());
        let (index, index_t) = index_timed(&session, &SliceOptions::default());
        let criteria = last_read_criteria(&session, 10);
        let n = criteria.len().max(1) as f64;
        let mut sz = 0usize;
        let mut st = 0.0f64;
        for criterion in criteria {
            let (slice, t) = walk_timed(&index, criterion);
            sz += slice.len();
            st += t.as_secs_f64();
        }
        trace_sum += collect_t.as_secs_f64();
        index_sum += index_t.as_secs_f64();
        size_sum += sz as f64 / n;
        time_sum += st / n;
        println!(
            "{:<15} {:>14} {:>14} {:>16.0} {:>18.6}",
            p.name,
            secs(collect_t),
            secs(index_t),
            sz as f64 / n,
            st / n,
        );
    }
    let n = programs.len() as f64;
    println!(
        "{:<15} {:>14.3} {:>14.3} {:>16.0} {:>18.6}",
        "average",
        trace_sum / n,
        index_sum / n,
        size_sum / n,
        time_sum / n
    );
}

fn format_len(l: u64) -> String {
    if l >= 1_000_000 {
        format!("{}M", l / 1_000_000)
    } else if l >= 1_000 {
        format!("{}k", l / 1_000)
    } else {
        l.to_string()
    }
}

/// Design-choice ablations called out in DESIGN.md: CFG refinement (§5.1)
/// and the dependence index against the naive backward scan, measured on
/// the x264 analog (the one with indirect-jump dispatch).
pub fn ablations(region_length: u64) {
    use crate::timed;

    // Walks take microseconds to milliseconds: print them finer than
    // `secs`.
    let fine = |d: std::time::Duration| format!("{:.6}", d.as_secs_f64());
    println!(
        "Ablations (x264 analog, region of {} main-thread instructions, slice at last read)",
        format_len(region_length)
    );
    println!("{:-<90}", "");
    let p = all_parsec()
        .into_iter()
        .find(|p| p.name == "x264")
        .expect("x264 present");
    let rr = record_parsec_region(&p, 1_000, region_length);
    let encoded = rr.program.symbol("encoded").expect("x264 has `encoded`");

    // 1. Indirect-jump CFG refinement on/off: slice the encoded total,
    //    whose chain crosses the frame-type dispatch (the §5.1 switch).
    for refine in [true, false] {
        let (session, collect_t) = collect_session(
            &rr.program,
            &rr.recording.pinball,
            SlicerOptions {
                refine_indirect: refine,
            },
        );
        let criterion = crate::exp::last_read_of_addr(&session, encoded).expect("encoded is read");
        let (index, index_t) = index_timed(&session, &SliceOptions::default());
        let (slice, walk_t) = walk_timed(&index, criterion);
        println!(
            "refine_indirect={refine:<5}  slice size {:>8}  collect {:>8}s  index {:>8}s  walk {:>9}s",
            slice.len(),
            crate::secs(collect_t),
            crate::secs(index_t),
            fine(walk_t),
        );
    }

    // 2. The dependence index against the naive backward scan.
    {
        let (session, _) =
            collect_session(&rr.program, &rr.recording.pinball, SlicerOptions::default());
        let criterion = crate::exp::last_read_of_addr(&session, encoded).expect("encoded is read");
        let (index, index_t) = index_timed(&session, &SliceOptions::default());
        let (indexed, walk_t) = walk_timed(&index, criterion);
        let (naive, naive_t) = timed(|| {
            slicer::compute_slice_naive(
                session.trace(),
                criterion,
                session.pairs(),
                SliceOptions::default(),
            )
        });
        assert_eq!(
            (
                &indexed.records,
                &indexed.data_edges,
                &indexed.control_edges
            ),
            (&naive.records, &naive.data_edges, &naive.control_edges),
            "the index must not change the slice"
        );
        println!(
            "index traversal: build {:>8}s + walk {:>9}s   naive: {:>8}s   (identical slices)",
            crate::secs(index_t),
            fine(walk_t),
            crate::secs(naive_t),
        );
    }
}

/// §7's pinball-size observation: "The pinball size is *not* directly a
/// function of region length but depends on memory access pattern and
/// amount of thread interaction." Prints compressed pinball sizes across
/// region lengths for each program.
pub fn pinball_sizes(lengths: &[u64]) {
    println!("Pinball sizes (KB, compressed) vs region length (main thread)");
    println!("{:-<100}", "");
    print!("{:<15}", "program");
    for l in lengths {
        print!("{:>12}", format_len(*l));
    }
    println!();
    for p in all_parsec() {
        print!("{:<15}", p.name);
        for &len in lengths {
            let rr = record_parsec_region(&p, 1_000, len);
            print!("{:>12}", kb(rr.space_bytes));
        }
        println!();
    }
    println!(
        "(sizes track context switches and syscall volume, not raw length: compare\n\
         swaptions' syscall-heavy log against blackscholes' at the same length)"
    );
}
