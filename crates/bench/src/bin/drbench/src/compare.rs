//! `drbench compare <parent-checkout> <change-checkout>`: builds the
//! benchmark in each checkout, runs both alternately (which side goes
//! first alternates too; both sides of a pair share a seed), and judges
//! every metric:
//!
//! - **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound, and the parent's own spread (its
//!   interquartile range over its median) is within the bound, or every
//!   change run is worse than every parent run;
//! - **unresolved**: the parent's spread is wider than the bound, so a
//!   move that size cannot be told from noise;
//! - **improved**: a claim, granted only when the change wins at least
//!   9 of every 10 pairs (ties count for neither) over at least 10 pairs
//!   and the medians differ by more than the parent's interquartile range;
//! - **changed**: a count that must repeat exactly did not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::report::{rule, Better};
use crate::stats::{quartiles, sort};

/// Pairs a claim needs.
const CLAIM_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Improved,
    Changed,
    Info,
}

impl Verdict {
    fn flags(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// One metric judged over paired runs.
#[derive(Debug, Clone)]
pub struct Judged {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    /// How much worse the change's median is, as a share of the
    /// parent's (negative: better).
    pub worse: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges paired samples (`parent[i]` and `change[i]` share a seed).
pub fn judge(name: &str, unit: &str, parent: &[f64], change: &[f64]) -> Judged {
    let (better, bound) = rule(name, unit);
    let (p, c) = (quartiles(parent), quartiles(change));
    let sign = if better == Better::Higher { -1.0 } else { 1.0 };
    let worse = if p[1] == 0.0 {
        if c[1] == p[1] {
            0.0
        } else {
            f64::INFINITY * sign * (c[1] - p[1]).signum()
        }
    } else {
        sign * (c[1] - p[1]) / p[1].abs()
    };
    // `a` reads better than `b`.
    let beats = |a: f64, b: f64| {
        if better == Better::Higher {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    // A side's (best, worst) run.
    let extremes = |runs: &[f64]| {
        let mut v = runs.to_vec();
        sort(&mut v);
        let (low, high) = (v.first().copied(), v.last().copied());
        if better == Better::Higher {
            (high, low)
        } else {
            (low, high)
        }
    };
    let ((best_parent, worst_parent), (best_change, worst_change)) =
        (extremes(parent), extremes(change));
    let all_worse = matches!((best_change, worst_parent), (Some(c), Some(p)) if beats(p, c));
    let all_better = matches!((worst_change, best_parent), (Some(c), Some(p)) if beats(c, p));
    let iqr = p[2] - p[0];
    let spread = if p[1] == 0.0 { 0.0 } else { iqr / p[1].abs() };
    let verdict = match better {
        Better::Info => Verdict::Info,
        Better::Exact if p[1] == c[1] => Verdict::Ok,
        Better::Exact => Verdict::Changed,
        _ if worse > bound && (spread <= bound || all_worse) => Verdict::Regressed,
        _ if worse > bound => Verdict::Unresolved,
        _ if pairs >= CLAIM_PAIRS && wins * 10 >= pairs * 9 && (c[1] - p[1]).abs() > iqr => {
            Verdict::Improved
        }
        _ if spread > bound && !all_better => Verdict::Unresolved,
        _ => Verdict::Ok,
    };
    Judged {
        parent: p,
        change: c,
        worse,
        wins,
        pairs,
        verdict,
    }
}

/// Every run's metrics by name: (unit, values in run order).
pub type Samples = BTreeMap<String, (String, Vec<f64>)>;

/// Adds one run's `name value unit` lines to `into`.
pub fn absorb(into: &mut Samples, output: &str) {
    for line in output.lines() {
        let mut tokens = line.split_whitespace();
        let (Some(name), Some(value), Some(unit), None) =
            (tokens.next(), tokens.next(), tokens.next(), tokens.next())
        else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        if !name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
            continue;
        }
        into.entry(name.to_string())
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
}

/// Judges every metric both sides reported; returns the names flagged.
pub fn report(workload: &str, parent: &Samples, change: &Samples) -> Vec<String> {
    println!("## {workload}");
    println!(
        "{:<34} {:>26} {:>26} {:>8} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins"
    );
    let mut flagged = Vec::new();
    for (name, (unit, p)) in parent {
        let Some((_, c)) = change.get(name) else {
            continue;
        };
        let j = judge(name, unit, p, c);
        let q = |x: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", x[1], x[0], x[2]);
        println!(
            "{:<34} {:>26} {:>26} {:>7.1}% {:>3}/{:<2}  {:?}",
            format!("{name} ({unit})"),
            q(j.parent),
            q(j.change),
            j.worse * 100.0,
            j.wins,
            j.pairs,
            j.verdict
        );
        if j.verdict.flags() {
            flagged.push(name.clone());
        }
    }
    flagged
}

struct Args {
    sides: [PathBuf; 2],
    runs: usize,
    workloads: Vec<String>,
    seconds: f64,
    seed: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut sides = Vec::new();
    let mut out = Args {
        sides: [PathBuf::new(), PathBuf::new()],
        runs: CLAIM_PAIRS,
        workloads: Vec::new(),
        seconds: crate::DEFAULT_SECONDS,
        seed: crate::DEFAULT_SEED,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--runs" => out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--workload" => out.workloads.push(value()?),
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => out.trace = true,
            dir if !dir.starts_with("--") => sides.push(PathBuf::from(dir)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let [parent, change]: [PathBuf; 2] = sides
        .try_into()
        .map_err(|_| "compare needs a parent and a change checkout".to_string())?;
    out.sides = [parent, change];
    if out.runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    if out.workloads.is_empty() {
        out.workloads = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if let Some(w) = out
        .workloads
        .iter()
        .find(|w| !crate::WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {w}"));
    }
    Ok(out)
}

/// Builds the benchmark in checkout `dir`; returns the binary.
fn build(dir: &Path) -> Result<PathBuf, String> {
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let target = dir.join(".bench_build");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(dir.join("crates/bench/src/bin/drbench/Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the benchmark in {} failed",
            dir.display()
        ));
    }
    Ok(target.join("release/drbench"))
}

/// One run of the benchmark binary in checkout `dir`; its stdout.
fn run_once(
    bin: &Path,
    dir: &Path,
    workload: &str,
    seed: u64,
    args: &Args,
) -> Result<String, String> {
    let out = Command::new(bin)
        .current_dir(dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {workload} --seed {seed} failed in {}",
            bin.display(),
            dir.display()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let args = parse(args)?;
    let bins = [build(&args.sides[0])?, build(&args.sides[1])?];
    if args.runs < CLAIM_PAIRS {
        eprintln!("drbench: {} pairs; a claim needs {CLAIM_PAIRS}", args.runs);
    }
    let mut flagged = Vec::new();
    for w in &args.workloads {
        let mut samples = [Samples::new(), Samples::new()];
        for i in 0..args.runs {
            let seed = args.seed + i as u64;
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let out = run_once(&bins[side], &args.sides[side], w, seed, &args)?;
                absorb(&mut samples[side], &out);
            }
        }
        flagged.extend(
            report(w, &samples[0], &samples[1])
                .into_iter()
                .map(|m| format!("{w}/{m}")),
        );
    }
    if flagged.is_empty() {
        println!("no metric regressed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("flagged: {}", flagged.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread_around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_steady_slowdown_past_the_bound_regresses() {
        let p = spread_around(100.0, 0.02);
        let c = spread_around(130.0, 0.02);
        let j = judge("slice_ms_p50", "ms", &p, &c);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.worse - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_slowdown_within_the_bound_is_ok() {
        let p = spread_around(100.0, 0.02);
        let c = spread_around(105.0, 0.02);
        assert_eq!(judge("slice_ms_p50", "ms", &p, &c).verdict, Verdict::Ok);
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        // Parent spread 60% against a 25% bound.
        let p = spread_around(100.0, 0.4);
        let c: Vec<f64> = p.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            judge("slice_ms_p50", "ms", &p, &c).verdict,
            Verdict::Unresolved
        );
        // ... unless every change run is worse than every parent run.
        let c: Vec<f64> = p.iter().map(|x| x + 200.0).collect();
        assert_eq!(
            judge("slice_ms_p50", "ms", &p, &c).verdict,
            Verdict::Regressed
        );
        // Unchanged but noisy: still unresolved, not "unchanged".
        assert_eq!(
            judge("slice_ms_p50", "ms", &p, &p).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn throughput_regresses_downwards() {
        let p = spread_around(1000.0, 0.01);
        let c = spread_around(700.0, 0.01);
        assert_eq!(
            judge("throughput_rps", "1/s", &p, &c).verdict,
            Verdict::Regressed
        );
        let c = spread_around(1200.0, 0.01);
        assert_eq!(
            judge("throughput_rps", "1/s", &p, &c).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_claim_needs_nine_wins_in_ten() {
        let p = spread_around(100.0, 0.01);
        let mut c: Vec<f64> = p.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge("relog_ms_p50", "ms", &p, &c).verdict,
            Verdict::Improved
        );
        // Two lost pairs: 8/10 wins is no claim.
        c[0] = p[0] * 1.01;
        c[1] = p[1] * 1.01;
        let j = judge("relog_ms_p50", "ms", &p, &c);
        assert_eq!((j.wins, j.verdict), (8, Verdict::Ok));
        // Fewer than ten pairs never claims.
        let j = judge("relog_ms_p50", "ms", &p[..6], &c[2..8]);
        assert_eq!(j.verdict, Verdict::Ok);
    }

    #[test]
    fn exact_counts_must_repeat() {
        let p = vec![7.0; 10];
        assert_eq!(
            judge("slicer.index.edges", "count", &p, &p).verdict,
            Verdict::Ok
        );
        let c = vec![8.0; 10];
        assert_eq!(
            judge("slicer.index.edges", "count", &p, &c).verdict,
            Verdict::Changed
        );
        assert_eq!(
            judge("trace.overhead_frac", "frac", &p, &c).verdict,
            Verdict::Info
        );
    }

    #[test]
    fn run_output_parses_into_samples() {
        let mut s = Samples::new();
        absorb(
            &mut s,
            "# open loop at 50 rps: read p99 3 ms\nslice_ms_p50 1.5 ms\n{\"correct\": true}\nslice_ms_p50 2.5 ms\n",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s["slice_ms_p50"], ("ms".to_string(), vec![1.5, 2.5]));
    }

    /// The ROADMAP gate: a run that calls one layer twice per use is
    /// flagged by `compare` on that layer's metric, and on no other
    /// layer's. Tiny churn runs, alternating baseline and doubled.
    #[test]
    fn a_doubled_layer_is_flagged_by_name() {
        const LAYER: &str = "pinplay.relog";
        let _alone = crate::tests::HEAVY
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut sides = [Samples::new(), Samples::new()];
        for i in 0..CLAIM_PAIRS {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let mut ctx = crate::Ctx::new(crate::DEFAULT_SEED + i as u64, 0.3, true);
                ctx.tiny = true;
                ctx.double = (side == 1).then_some(LAYER);
                let outcome = crate::cycle::churn(&ctx);
                assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
                absorb(&mut sides[side], &crate::report::lines(&outcome));
            }
        }
        let layers: Vec<&str> = crate::report::PER_LAYER.iter().map(|l| l.name).collect();
        let flagged: Vec<String> = sides[0]
            .iter()
            .filter(|(name, _)| layers.contains(&name.as_str()))
            .filter(|(name, (unit, p))| judge(name, unit, p, &sides[1][*name].1).verdict.flags())
            .map(|(name, _)| name.clone())
            .collect();
        assert_eq!(flagged, vec![format!("{LAYER}.ms")]);
    }
}
