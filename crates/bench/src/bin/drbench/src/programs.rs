//! The benchmark's inputs: program texts, seeded recording, and seeded
//! choices. Everything here is a pure function of `--seed`, and nothing is
//! imported from the repository's experiment harness, so a later change
//! to that harness cannot silently change what the benchmark measures.

use std::sync::Arc;

use minivm::{assemble, LiveEnv, Program, RandomSched};
use pinplay::{record_region, Recording, RegionSpec};
use slicer::{Criterion, GlobalTrace};

/// Average instructions between context switches of the seeded random
/// scheduler. Close to the round-robin quantum the paper experiments use,
/// so schedule-log volume per instruction matches them.
const SWITCH_PERIOD: u32 = 16;

/// The scheduler seed of the workloads' main recordings. It is fixed, not
/// drawn from `--seed`: across random schedules the median slice of a
/// canneal region moves by ±15% and a region's length by ±3%, which would
/// make a run's cost depend on the schedule its seed happens to draw.
/// `--seed` still picks the environment (syscall results), the criteria,
/// and the order of the served questions.
pub const SCHEDULE: u64 = 0x5eed;

/// SplitMix64: the seeded source of every benchmark choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A child generator for an independent stream of choices.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

fn build(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("benchmark program assembles"))
}

/// Four threads each loop `iters` calls to a helper that saves r1,
/// clobbers it and restores it: a deep chain of save/restore pairs (paper
/// §5.2), 28 records per iteration across the four threads. Main's final
/// `addi` uses the r1 defined before the loop, so its slice must bypass
/// every pair.
pub fn churn(iters: u64) -> Arc<Program> {
    build(&format!(
        r"
        .text
        .func main
            movi r1, 3
            movi r2, {iters}
            spawn r10, worker, r2
            spawn r11, worker, r2
            spawn r12, worker, r2
            mov r0, r2
            call churn_loop
            join r10
            join r11
            join r12
            addi r5, r1, 7
            halt
        .endfunc
        .func worker
            call churn_loop
            halt
        .endfunc
        .func churn_loop
        loop:
            call helper
            subi r0, r0, 1
            bgti r0, 0, loop
            ret
        .endfunc
        .func helper
            push r1
            movi r1, 9
            pop r1
            ret
        .endfunc
        "
    ))
}

/// Main-thread instructions per work unit of the PARSEC analogs below.
const PARSEC_INSTRUCTIONS_PER_UNIT: u64 = 12;

/// One PARSEC analog: a name and a generator taking work units.
#[derive(Clone, Copy)]
pub struct Parsec {
    pub name: &'static str,
    pub build: fn(u64) -> Arc<Program>,
}

/// The three analogs whose slices keep few, some and nearly all records:
/// blackscholes (private work, one final reduction), canneal (random CAS
/// swaps over a shared array) and streamcluster (an atomic add every
/// iteration).
pub const PARSEC: [Parsec; 3] = [
    Parsec {
        name: "blackscholes",
        build: blackscholes,
    },
    Parsec {
        name: "canneal",
        build: canneal,
    },
    Parsec {
        name: "streamcluster",
        build: streamcluster,
    },
];

fn blackscholes(units: u64) -> Arc<Program> {
    build(&format!(
        r"
        .data
        result:  .word 0
        options: .word 17, 23, 31, 45
        .text
        .func main
            movi r1, {units}
            spawn r10, worker, r1
            spawn r11, worker, r1
            spawn r12, worker, r1
            mov r0, r1
            call price_loop
            la r2, result
            xadd r3, r2, r0
            join r10
            join r11
            join r12
            halt
        .endfunc
        .func worker
            call price_loop
            la r2, result
            xadd r3, r2, r0
            halt
        .endfunc
        .func price_loop
            movi r2, 0
            movi r3, 0
            la r6, options
        loop:
            andi r7, r3, 3
            add r7, r6, r7
            load r4, r7, 0
            muli r4, r4, 3
            addi r4, r4, 5
            mul r5, r4, r4
            shri r5, r5, 4
            add r2, r2, r5
            andi r2, r2, 0xffff
            addi r3, r3, 1
            subi r0, r0, 1
            bgti r0, 0, loop
            mov r0, r2
            ret
        .endfunc
        "
    ))
}

fn canneal(units: u64) -> Arc<Program> {
    build(&format!(
        r"
        .data
        netlist: .word 5, 9, 2, 8, 1, 7, 4, 6
        .text
        .func main
            movi r1, {units}
            spawn r10, worker, r1
            spawn r11, worker, r1
            spawn r12, worker, r1
            mov r0, r1
            call anneal
            join r10
            join r11
            join r12
            halt
        .endfunc
        .func worker
            call anneal
            halt
        .endfunc
        .func anneal
        swap:
            rand r2
            andi r2, r2, 7
            la r3, netlist
            add r3, r3, r2
            load r4, r3, 0
            addi r5, r4, 1
            andi r5, r5, 0xff
            cas r6, r3, r4, r5
            subi r0, r0, 1
            bgti r0, 0, swap
            ret
        .endfunc
        "
    ))
}

fn streamcluster(units: u64) -> Arc<Program> {
    build(&format!(
        r"
        .data
        cost: .word 0
        .text
        .func main
            movi r1, {units}
            spawn r10, worker, r1
            spawn r11, worker, r1
            spawn r12, worker, r1
            mov r0, r1
            call cluster
            join r10
            join r11
            join r12
            halt
        .endfunc
        .func worker
            call cluster
            halt
        .endfunc
        .func cluster
            movi r2, 3
        point:
            mul r3, r2, r2
            shri r3, r3, 3
            addi r3, r3, 1
            la r4, cost
            xadd r5, r4, r3
            addi r2, r2, 2
            andi r2, r2, 0x3f
            subi r0, r0, 1
            bgti r0, 0, point
            ret
        .endfunc
        "
    ))
}

/// Records a whole churn run under the seeded random scheduler.
pub fn record_churn(program: &Arc<Program>, iters: u64, schedule: u64, env: u64) -> Recording {
    record_region(
        program,
        &mut RandomSched::new(schedule, SWITCH_PERIOD),
        &mut LiveEnv::new(env),
        RegionSpec::whole_program(),
        iters * 64 + 100_000,
        "churn",
    )
    .expect("churn capture succeeds")
}

/// Builds a PARSEC analog sized for a `length`-instruction region after
/// `skip` main-thread instructions.
pub fn parsec_program(p: &Parsec, skip: u64, length: u64) -> Arc<Program> {
    let main = skip + length + length / 2 + 1_000;
    (p.build)(main.div_ceil(PARSEC_INSTRUCTIONS_PER_UNIT))
}

/// Records the paper's skip/length region of a PARSEC analog (§7).
pub fn record_parsec(
    p: &Parsec,
    program: &Arc<Program>,
    skip: u64,
    length: u64,
    schedule: u64,
    env: u64,
) -> Recording {
    record_region(
        program,
        &mut RandomSched::new(schedule, SWITCH_PERIOD),
        &mut LiveEnv::new(env),
        RegionSpec::skip_length(skip, length),
        (skip + length) * 12 + 1_000_000,
        p.name,
    )
    .expect("parsec region capture succeeds")
}

/// Whether a record reads memory: the paper's slice criteria are "the last
/// 10 reads" of the region.
fn is_read(r: &slicer::TraceRecord) -> bool {
    matches!(
        r.instr,
        minivm::Instr::Load { .. }
            | minivm::Instr::Pop { .. }
            | minivm::Instr::Cas { .. }
            | minivm::Instr::AtomicAdd { .. }
    )
}

/// The paper's criteria (the last `last` reads of the region, newest
/// first) followed by `extra` distinct reads drawn by `rng` from the rest.
pub fn read_criteria(
    trace: &GlobalTrace,
    last: usize,
    extra: usize,
    rng: &mut Rng,
) -> Vec<Criterion> {
    let mut reads: Vec<_> = trace
        .records()
        .iter()
        .filter(|r| is_read(r))
        .map(|r| r.id)
        .collect();
    reads.sort_unstable();
    let split = reads.len().saturating_sub(last);
    let (older, newest) = reads.split_at(split);
    let mut out: Vec<Criterion> = newest
        .iter()
        .rev()
        .map(|&id| Criterion::Record { id })
        .collect();
    out.extend(
        pick_distinct(older, extra, rng)
            .into_iter()
            .map(|id| Criterion::Record { id }),
    );
    out
}

/// `n` distinct record criteria drawn by `rng` from the whole trace.
pub fn record_criteria(trace: &GlobalTrace, n: usize, rng: &mut Rng) -> Vec<Criterion> {
    let ids: Vec<_> = trace.records().iter().map(|r| r.id).collect();
    pick_distinct(&ids, n, rng)
        .into_iter()
        .map(|id| Criterion::Record { id })
        .collect()
}

/// `n` distinct items of `from` (all of them when it is shorter), one
/// drawn from each of `n` equal strata: every seed samples the whole
/// range evenly, so costs that depend on position barely vary by seed.
fn pick_distinct<T: Copy>(from: &[T], n: usize, rng: &mut Rng) -> Vec<T> {
    let n = n.min(from.len());
    (0..n)
        .map(|i| {
            let (lo, hi) = (i * from.len() / n, (i + 1) * from.len() / n);
            from[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// The churn criterion: main's final use of r1, whose resolution bypasses
/// every save/restore pair.
pub fn churn_criterion(trace: &GlobalTrace) -> Criterion {
    let id = trace
        .records()
        .iter()
        .filter(|r| {
            r.tid == 0
                && r.use_keys(false)
                    .any(|(k, _)| k == slicer::LocKey::Reg(0, minivm::Reg(1)))
        })
        .map(|r| r.id)
        .max()
        .expect("main uses r1 after the churn loop");
    Criterion::Record { id }
}
