//! `drbench`: one seeded benchmark for the record → slice → relog → serve
//! pipeline, end to end and per layer. See the package's README.md.
//!
//! ```text
//! drbench run <workload> [--seed N] [--seconds S] [--trace FILE|0|1]
//! drbench --workload <workload> --seed N --seconds S --trace 0|1
//! drbench compare <parent-checkout> <change-checkout> [--runs N] [--workload W]... [--seconds S] [--seed N] [--trace]
//! ```

mod compare;
mod cycle;
mod oracle;
mod programs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{metric, Metric, Outcome, PER_LAYER};
use trace::Tracer;

/// The seed runs use unless told otherwise. (Seed 7919 is held out for
/// confirming claims; see README.md.)
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run unless told otherwise (`BENCHMARK.json`'s
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Set-up is repeated this many times per run and its median reported,
/// so work moved into set-up shows.
const SETUP_REPS: usize = 3;

pub const WORKLOADS: [&str; 4] = [
    "cycle-churn",
    "cycle-parsec",
    "serve-mixed",
    "fleet-forward",
];

/// One run's settings and its tracer.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// A traced run: half the windows untraced, half traced.
    pub traced: bool,
    /// Self-test sizes: every workload input shrunk to milliseconds.
    pub tiny: bool,
    /// The layer call the sensitivity self-test performs twice.
    pub double: Option<&'static str>,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            traced,
            tiny: false,
            double: None,
            tracer: Tracer::new(traced),
        }
    }

    /// One call into a layer, wrapped in a span named after it. When the
    /// sensitivity self-test doubles this layer, `f` runs twice and the
    /// duplicate result must equal the first.
    pub fn call<R: PartialEq>(&self, layer: &'static str, mut f: impl FnMut() -> R) -> R {
        let _span = self.tracer.span(layer);
        let first = f();
        if self.double == Some(layer) {
            assert!(f() == first, "doubled {layer} call gave a different result");
        }
        first
    }

    /// Runs `setup` [`SETUP_REPS`] times (dropping each result before the
    /// next), keeping the last; returns it with the median seconds.
    pub fn setup<S>(&self, mut setup: impl FnMut() -> S) -> (S, f64) {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..if self.tiny { 1 } else { SETUP_REPS } {
            drop(last.take());
            let started = Instant::now();
            last = Some(setup());
            times.push(started.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), stats::median(&times))
    }

    /// Runs the measured phase as [`WINDOWS`] windows of equal length.
    /// A traced run measures half its windows untraced, then half traced,
    /// and also returns how much slower the traced half ran
    /// (`trace.overhead_frac`, from each half's [`best`] throughput).
    pub fn measure<W>(
        &self,
        mut window: impl FnMut(Duration) -> W,
        throughput: impl Fn(&W) -> f64,
    ) -> (Vec<Vec<W>>, Option<f64>) {
        let len = Duration::from_secs_f64(self.seconds / WINDOWS as f64);
        let mut phase = |windows: usize| -> Vec<W> { (0..windows).map(|_| window(len)).collect() };
        if !self.traced {
            return (vec![phase(WINDOWS)], None);
        }
        self.tracer.set(false);
        let plain = phase(WINDOWS / 2);
        self.tracer.set(true);
        let traced = phase(WINDOWS / 2);
        let overhead =
            best(&plain, true, &throughput) / best(&traced, true, &throughput).max(1e-12) - 1.0;
        (vec![plain, traced], Some(overhead))
    }
}

/// The measured time is cut into this many windows. Every timing is
/// computed per window and the mean of the better half of the windows
/// reported: other tenants of a shared machine only ever add time, and in
/// bursts of seconds, so the least-disturbed windows are the steadiest
/// estimate of the system's own cost, while a change to the code moves
/// every window alike. Averaging the better half, not taking the single
/// best, keeps one lucky window from deciding a tail percentile.
pub const WINDOWS: usize = 6;

/// The mean of the better half of the windows' values of `stat` (the
/// higher ones when `higher` is better, else the lower ones).
pub fn best<W>(windows: &[W], higher: bool, stat: impl Fn(&W) -> f64) -> f64 {
    let mut values: Vec<f64> = windows.iter().map(stat).collect();
    stats::sort(&mut values);
    if higher {
        values.reverse();
    }
    let half = &values[..values.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len().max(1) as f64
}

/// An end-to-end metric over windows: [`best`] of `stat`, with every
/// window's value noted.
pub fn windowed<W>(
    notes: &mut Vec<String>,
    name: &'static str,
    windows: &[W],
    stat: impl Fn(&W) -> f64,
) -> Metric {
    let values: Vec<f64> = windows.iter().map(&stat).collect();
    let higher = report::END_TO_END
        .iter()
        .any(|s| s.name == name && s.better == report::Better::Higher);
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    notes.push(format!("windows {name}: {}", shown.join(" ")));
    report::e2e(name, best(&values, higher, |v| *v))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `BENCHMARK.json` per-layer metrics of a traced run, aggregated
/// from the tracer's samples.
pub fn layer_metrics(ctx: &Ctx, overhead: f64) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|l| {
            let samples = ctx.tracer.samples(l.sample);
            let value = if l.sample.is_empty() {
                overhead
            } else if l.mean {
                samples.iter().sum::<f64>() / samples.len().max(1) as f64
            } else {
                stats::median(&samples)
            };
            metric(l.name, value, l.unit)
        })
        .collect()
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Where to write spans; `None` runs untraced.
    trace: Option<PathBuf>,
}

fn parse_run(args: &[String], workload: Option<String>) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: workload.unwrap_or_default(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            out.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    out.trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => {
            Some(results_dir().join(format!("{}-seed{}.spans.json", out.workload, out.seed)))
        }
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(out)
}

/// Runs one of [`WORKLOADS`].
fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "cycle-churn" => cycle::churn(ctx),
        "cycle-parsec" => cycle::parsec(ctx),
        "serve-mixed" => serve::mixed(ctx),
        "fleet-forward" => serve::fleet(ctx),
        other => panic!("no workload {other}"),
    }
}

/// Where run results land, relative to the checkout root.
pub fn results_dir() -> PathBuf {
    PathBuf::from("target/bench/drbench")
}

fn run(args: RunArgs) -> ExitCode {
    let traced = args.trace.is_some();
    let ctx = Ctx::new(args.seed, args.seconds, traced);
    let outcome = run_workload(&args.workload, &ctx);
    for note in &outcome.notes {
        println!("# {note}");
    }
    if traced {
        for (name, (calls, total, own)) in trace::self_times(&ctx.tracer.spans()) {
            println!("# self {name}: {calls} calls, {total:.3} ms total, {own:.3} ms self");
        }
    }
    print!("{}", report::lines(&outcome));
    let dir = results_dir();
    let suffix = if traced { "-trace" } else { "" };
    let file = dir.join(format!("{}-seed{}{suffix}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &file,
                report::file_json(&args.workload, args.seed, args.seconds, traced, &outcome),
            )
        })
        .and_then(|()| match &args.trace {
            Some(path) => std::fs::write(path, ctx.tracer.to_json()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("drbench: writing results under {}: {e}", dir.display());
    }
    println!("{}", report::result_line(&outcome, traced));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "drbench: {} of {} operations failed or answered wrongly",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage:
  drbench run <workload> [--seed N] [--seconds S] [--trace FILE|0|1]
  drbench --workload <workload> --seed N --seconds S --trace 0|1
  drbench compare <parent-checkout> <change-checkout> [--runs N] [--workload W]... [--seconds S] [--seed N] [--trace]
workloads: cycle-churn, cycle-parsec, serve-mixed, fleet-forward";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[2.min(args.len())..], args.get(1).cloned()).map(run),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => parse_run(&args, None).map(run),
        _ => Err("no command".to_string()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("drbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Held by the tests that time whole workloads, so they do not run at
    /// the same time and disturb each other's timings.
    pub(crate) static HEAVY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn best_averages_the_better_half_of_the_windows() {
        let windows = [4.0, 1.0, 6.0, 3.0, 2.0, 5.0];
        assert_eq!(best(&windows, false, |w| *w), 2.0);
        assert_eq!(best(&windows, true, |w| *w), 5.0);
        // An odd count keeps the middle window in the better half.
        assert_eq!(best(&[3.0, 1.0, 2.0], false, |w| *w), 1.5);
    }

    /// Every workload runs end to end at self-test sizes, traced, with
    /// every answer checked and every `BENCHMARK.json` metric reported.
    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        let _alone = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        for name in WORKLOADS {
            let mut ctx = Ctx::new(DEFAULT_SEED, 2.0, true);
            ctx.tiny = true;
            let o = run_workload(name, &ctx);
            assert!(o.attempted > 0, "{name} attempted nothing");
            assert_eq!(o.failed, 0, "{name}: {:?}", o.notes);
            for s in &report::END_TO_END {
                assert!(
                    o.metrics.iter().any(|m| m.name == s.name),
                    "{name} lacks {}",
                    s.name
                );
            }
            for l in &PER_LAYER {
                assert!(
                    o.layers.iter().any(|m| m.name == l.name),
                    "{name} lacks {}",
                    l.name
                );
            }
        }
    }
}
