//! The local cyclic-debugging workloads: `cycle-churn` and `cycle-parsec`.
//!
//! Both drive the pipeline in one process, through the layers' public
//! functions: record a region (`pinplay`), encode it as a v4 container and
//! load it back, open a `drdebug::DebugSession` over it, ask the first
//! slice (which collects the trace and builds the dependence index in
//! `slicer`), relog the slice into a slice pinball and replay that. Then
//! the warm inner loop: more slice questions against the same session.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drdebug::DebugSession;
use minivm::{NullTool, Program};
use pinplay::{Pinball, PinballContainer, PinballDigest, ReplayStatus, Replayer};
use slicer::{Criterion, SliceOptions};

use crate::oracle::{self, Reference, Tally};
use crate::programs::{self, Rng, PARSEC, SCHEDULE};
use crate::report::{e2e, metric, Outcome};
use crate::stats::{median, percentile, sort};
use crate::{best, windowed, Ctx};

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Churn iterations per thread: 28 records each, ~112k records in all.
const CHURN_ITERS: u64 = 4_000;
/// PARSEC region: skip this many main-thread instructions, then record
/// `PARSEC_LENGTH` more (the paper's skip/length recipe, scaled down).
/// Every window runs one cold round of the three programs and one warm
/// pass over their criteria however short it is, so the region length and
/// [`PARSEC_EXTRA`] set the shortest window, and with the set-ups and the
/// reference sessions, how long a run takes beyond its measured seconds.
const PARSEC_SKIP: u64 = 1_000;
const PARSEC_LENGTH: u64 = 40_000;
/// Seeded warm criteria per churn recording.
const CHURN_POOL: usize = 512;
/// Seeded reads per PARSEC program beyond the paper's last 10.
const PARSEC_EXTRA: usize = 5;
/// Seeded criteria each reference checks against the naive slicer
/// (churn, each PARSEC program).
const NAIVE_CHECKS: [usize; 2] = [16, 2];
/// Share of the measured time spent on cold iterations; the rest is the
/// warm inner loop.
const COLD_SHARE: f64 = 0.5;
/// Each cold iteration replays its slice pinball at least this many times,
/// as a developer replays it again and again while debugging, and for at
/// least [`REPLAYS_MIN_TIME`]; the mean replay time is its sample. A
/// replay costs milliseconds against the iteration's hundreds, or (churn's
/// few kept instructions) microseconds, too few to time one at a time.
const SLICE_REPLAYS: usize = 5;
const REPLAYS_MIN_TIME: Duration = Duration::from_millis(2);

/// What one cold iteration measured and answered.
struct Cold {
    program: usize,
    first_ms: f64,
    relog_ms: f64,
    /// Mean time of the slice pinball's replays.
    replay_ms: f64,
    answer: u64,
    digest: PinballDigest,
    /// Slice pinball instructions logged, relog's `kept`, instructions
    /// replayed, and whether every replay completed alike.
    logged: u64,
    kept: u64,
    replayed: u64,
    completed: bool,
}

/// Record → v4 encode → decode → open: a session over a recording that
/// went through the codec, as a debugger loading a saved pinball gets it.
/// Returns the recording as captured, too.
fn open_recorded(
    ctx: &Ctx,
    program: &Arc<Program>,
    record: &dyn Fn() -> Pinball,
) -> (PinballContainer, DebugSession) {
    let captured = PinballContainer::new(ctx.call("pinplay.record", record));
    let bytes = ctx.call("pinplay.encode", || {
        captured.to_bytes().expect("v4 encoding is infallible")
    });
    ctx.tracer
        .sample("pinplay.encode.bytes", bytes.len() as f64);
    let loaded = ctx.call("pinplay.decode", || {
        PinballContainer::from_bytes(&bytes).expect("a fresh v4 container decodes")
    });
    let _span = ctx.tracer.span("drdebug.open");
    (
        captured,
        DebugSession::with_container(Arc::clone(program), loaded),
    )
}

/// One cold cyclic-debugging iteration: record → v4 encode → decode →
/// open → first slice → relog → replay the slice pinball.
fn cold(
    ctx: &Ctx,
    ix: usize,
    program: &Arc<Program>,
    record: &dyn Fn() -> Pinball,
    criterion: Criterion,
) -> Cold {
    let opts = SliceOptions::default();
    let started = Instant::now();
    let (captured, mut session) = open_recorded(ctx, program, record);
    let digest = captured.digest();
    let slice = {
        let _span = ctx.tracer.span("drdebug.slice");
        session.slice_criterion(criterion, opts.clone())
    };
    let first_ms = ms(started);
    oracle::sample_slice(ctx, &session);

    let started = Instant::now();
    let (relogged, report) = ctx.call("pinplay.relog", || {
        session.relog_criterion(criterion, opts.clone())
    });
    let relog_ms = ms(started);
    oracle::sample_kept(ctx, &report);

    let logged = relogged.pinball.logged_instructions();
    let relogged = Arc::new(relogged);
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < SLICE_REPLAYS || started.elapsed() < REPLAYS_MIN_TIME {
        runs.push(ctx.call("pinplay.replay.slice", || {
            let mut replayer = Replayer::shared(Arc::clone(program), Arc::clone(&relogged));
            let status = replayer.run(&mut NullTool);
            (status, replayer.replayed_instructions())
        }));
    }
    let replay_ms = ms(started) / runs.len() as f64;
    let (status, replayed) = runs[0];
    Cold {
        program: ix,
        first_ms,
        relog_ms,
        replay_ms,
        answer: oracle::answer(&slice),
        digest,
        logged,
        kept: report.kept,
        replayed,
        completed: status == ReplayStatus::Completed && runs.iter().all(|&r| r == runs[0]),
    }
}

/// A recording and a warm session over it: what set-up leaves for the
/// measured phase.
struct Warm {
    program: Arc<Program>,
    pinball: Pinball,
    session: DebugSession,
    /// The cold iterations' criterion first, then the warm loop's.
    criteria: Vec<Criterion>,
}

/// Set-up for one recording: record, encode, load, open, and warm the
/// dependence index with the first slice.
fn warm_up(
    ctx: &Ctx,
    program: Arc<Program>,
    record: &dyn Fn() -> Pinball,
    criteria: impl FnOnce(&slicer::GlobalTrace) -> Vec<Criterion>,
) -> Warm {
    let (captured, mut session) = open_recorded(ctx, &program, record);
    let criteria = criteria(session.slicer().trace());
    {
        let _span = ctx.tracer.span("drdebug.slice");
        session.slice_criterion(criteria[0], SliceOptions::default());
    }
    Warm {
        program,
        pinball: captured.pinball,
        session,
        criteria,
    }
}

/// What one measurement window collected.
#[derive(Default)]
struct Window {
    cold: Vec<Cold>,
    /// Warm slices: (recording, criterion index, latency ms, answer).
    warm: Vec<(usize, usize, f64, u64)>,
}

impl Window {
    fn throughput(&self) -> f64 {
        let busy: f64 = self.warm.iter().map(|w| w.2).sum();
        self.warm.len() as f64 / (busy / 1e3).max(1e-12)
    }

    fn warm_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.warm.iter().map(|w| w.2).collect();
        sort(&mut v);
        v
    }
}

/// Runs `round` at least once, then again while another round, as long
/// as the last one, still ends by `deadline`.
fn rounds(deadline: Instant, mut round: impl FnMut()) {
    loop {
        let started = Instant::now();
        round();
        if Instant::now() + started.elapsed() > deadline {
            return;
        }
    }
}

/// One measurement window of at most about `len`: cold iterations in
/// complete rounds (one per recording) for [`COLD_SHARE`] of it, then warm
/// slices in complete passes (every criterion of every recording once,
/// round-robin across recordings). Whole rounds and passes keep every
/// window's mix of questions the same, however fast the machine ran; a
/// round or pass that would end past its share is not begun, so a window
/// overruns `len` only when one round and one pass alone take longer.
fn window(
    ctx: &Ctx,
    warm: &mut [Warm],
    records: &[Box<dyn Fn() -> Pinball>],
    len: Duration,
) -> Window {
    let started = Instant::now();
    let mut out = Window::default();
    rounds(started + len.mul_f64(COLD_SHARE), || {
        for (ix, w) in warm.iter().enumerate() {
            out.cold
                .push(cold(ctx, ix, &w.program, &*records[ix], w.criteria[0]));
        }
    });
    let opts = SliceOptions::default();
    let pass = warm.iter().map(|w| w.criteria.len()).max().unwrap_or(0);
    rounds(started + len, || {
        for c in 0..pass {
            for (ix, w) in warm.iter_mut().enumerate() {
                let Some(&criterion) = w.criteria.get(c) else {
                    continue;
                };
                let t = Instant::now();
                let slice = {
                    let _span = ctx.tracer.span("drdebug.slice");
                    w.session.slice_criterion(criterion, opts.clone())
                };
                let d = ms(t);
                oracle::sample_slice(ctx, &w.session);
                out.warm.push((ix, c, d, oracle::answer(&slice)));
            }
        }
    });
    out
}

/// Checks every window against the references and turns the untraced
/// windows into metrics.
fn finish(
    ctx: &Ctx,
    setup_s: f64,
    warm: &[Warm],
    refs: &mut [Reference],
    phases: Vec<Vec<Window>>,
    overhead: Option<f64>,
    mut tally: Tally,
) -> Outcome {
    // Reference answers for every criterion a warm slice asked.
    let answers: Vec<Vec<u64>> = refs
        .iter_mut()
        .zip(warm)
        .map(|(r, w)| w.criteria.iter().map(|&c| r.answer(ctx, c)).collect())
        .collect();
    let digests: Vec<PinballDigest> = warm.iter().map(|w| w.pinball.digest()).collect();
    for w in phases.iter().flatten() {
        for c in &w.cold {
            tally.attempt();
            tally.check(c.digest == digests[c.program], || {
                format!("recording {} is not deterministic", c.program)
            });
            tally.check(c.answer == answers[c.program][0], || {
                format!(
                    "first slice of recording {} differs from the reference",
                    c.program
                )
            });
            tally.check(c.logged == c.kept, || {
                format!(
                    "slice pinball logs {} instructions, relog kept {}",
                    c.logged, c.kept
                )
            });
            tally.check(c.completed && c.replayed == c.kept, || {
                format!(
                    "slice pinball replayed {} of {} instructions, or its replays differ",
                    c.replayed, c.kept
                )
            });
        }
        for &(ix, c, _, a) in &w.warm {
            tally.attempt();
            tally.check(a == answers[ix][c], || {
                format!("warm slice {c} of recording {ix} differs from the reference")
            });
        }
    }
    // End-to-end numbers come from the untraced phase.
    let ws = &phases[0];
    let cold =
        |f: fn(&Cold) -> f64| move |w: &Window| median(&w.cold.iter().map(f).collect::<Vec<_>>());
    let warm_total: usize = ws.iter().map(|w| w.warm.len()).sum();
    let mut out = Outcome::default();
    let notes = &mut out.notes;
    out.metrics = vec![
        e2e("setup_s", setup_s),
        windowed(notes, "first_slice_ms_p50", ws, cold(|c| c.first_ms)),
        windowed(notes, "slice_ms_p50", ws, |w| percentile(&w.warm_ms(), 0.5)),
        windowed(notes, "slice_ms_p90", ws, |w| percentile(&w.warm_ms(), 0.9)),
        windowed(notes, "relog_ms_p50", ws, cold(|c| c.relog_ms)),
        windowed(notes, "slice_replay_ms_p50", ws, cold(|c| c.replay_ms)),
        windowed(notes, "throughput_rps", ws, Window::throughput),
        e2e("peak_rss_mb", crate::peak_rss_mb()),
        metric(
            "first_slice_samples",
            ws.iter().map(|w| w.cold.len()).sum::<usize>() as f64,
            "count",
        ),
        metric("slice_samples", warm_total as f64, "count"),
    ];
    if ws.iter().all(|w| w.warm.len() >= 1000) {
        out.metrics.push(metric(
            "slice_ms_p99",
            best(ws, false, |w| percentile(&w.warm_ms(), 0.99)),
            "ms",
        ));
    }
    if let Some(overhead) = overhead {
        out.layers = crate::layer_metrics(ctx, overhead);
    }
    tally.finish(out)
}

/// `cycle-churn`: the four-thread save/restore churn (~112k records).
/// Cold iterations are dominated by trace collection and index building;
/// the warm loop by traversal, which the index makes cheap.
pub fn churn(ctx: &Ctx) -> Outcome {
    let iters = if ctx.tiny { 300 } else { CHURN_ITERS };
    let pool = if ctx.tiny { 32 } else { CHURN_POOL };
    let seed = ctx.seed;
    let program = programs::churn(iters);
    let records: Vec<Box<dyn Fn() -> Pinball>> = vec![Box::new({
        let program = Arc::clone(&program);
        move || programs::record_churn(&program, iters, SCHEDULE, seed).pinball
    })];
    let (warm, setup_s) = ctx.setup(|| {
        vec![warm_up(ctx, Arc::clone(&program), &*records[0], |trace| {
            let mut rng = Rng::new(seed);
            let mut c = vec![programs::churn_criterion(trace)];
            c.extend(programs::record_criteria(trace, pool, &mut rng));
            c
        })]
    });
    run_cycle(ctx, setup_s, warm, &records, NAIVE_CHECKS[0])
}

/// `cycle-parsec`: blackscholes, canneal and streamcluster regions, whose
/// slices keep few, some and nearly all records, so traversal, relog,
/// slice replay and the codec all show. Criteria are the paper's last 10
/// reads plus seeded extra reads.
pub fn parsec(ctx: &Ctx) -> Outcome {
    let length = if ctx.tiny { 3_000 } else { PARSEC_LENGTH };
    let extra = if ctx.tiny { 4 } else { PARSEC_EXTRA };
    let seed = ctx.seed;
    let programs: Vec<Arc<Program>> = PARSEC
        .iter()
        .map(|p| programs::parsec_program(p, PARSEC_SKIP, length))
        .collect();
    let records: Vec<Box<dyn Fn() -> Pinball>> = PARSEC
        .iter()
        .zip(&programs)
        .map(|(p, program)| -> Box<dyn Fn() -> Pinball> {
            let program = Arc::clone(program);
            Box::new(move || {
                programs::record_parsec(p, &program, PARSEC_SKIP, length, SCHEDULE, seed).pinball
            })
        })
        .collect();
    let (warm, setup_s) = ctx.setup(|| {
        programs
            .iter()
            .zip(&records)
            .enumerate()
            .map(|(ix, (program, record))| {
                warm_up(ctx, Arc::clone(program), &**record, |trace| {
                    let mut rng = Rng::new(seed ^ ix as u64);
                    programs::read_criteria(trace, 10, extra, &mut rng)
                })
            })
            .collect()
    });
    run_cycle(ctx, setup_s, warm, &records, NAIVE_CHECKS[1])
}

fn run_cycle(
    ctx: &Ctx,
    setup_s: f64,
    mut warm: Vec<Warm>,
    records: &[Box<dyn Fn() -> Pinball>],
    naive_checks: usize,
) -> Outcome {
    let mut tally = Tally::default();
    let mut rng = Rng::new(ctx.seed).fork();
    let mut refs: Vec<Reference> = warm
        .iter()
        .map(|w| {
            Reference::new(
                ctx,
                &w.program,
                &w.pinball,
                &w.criteria,
                if ctx.tiny { 2 } else { naive_checks },
                &mut rng,
                &mut tally,
            )
        })
        .collect();
    let (phases, overhead) = ctx.measure(
        |len| window(ctx, &mut warm, records, len),
        Window::throughput,
    );
    finish(ctx, setup_s, &warm, &mut refs, phases, overhead, tally)
}
