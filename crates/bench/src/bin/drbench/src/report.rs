//! Metric names, units, directions and bounds, and the three renderings
//! of one run: `name value unit` lines, a flat JSON file, and the final
//! one-line JSON result.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// A count that must repeat exactly for the same code and seed.
    Exact,
    /// Reported, never judged.
    Info,
}

/// An end-to-end metric as `BENCHMARK.json` defines it.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every workload with tracing off. The
/// per-workload meaning of each is in README.md. Every timing bound is a
/// quarter: on a shared 2-vCPU machine the served workloads' spread over
/// ten seeds reaches 0.15–0.3 while neighbours load the host.
pub const END_TO_END: [Spec; 8] = [
    spec("setup_s", "s", Better::Lower, 0.25),
    spec("first_slice_ms_p50", "ms", Better::Lower, 0.25),
    spec("slice_ms_p50", "ms", Better::Lower, 0.25),
    spec("slice_ms_p90", "ms", Better::Lower, 0.25),
    spec("relog_ms_p50", "ms", Better::Lower, 0.25),
    spec("slice_replay_ms_p50", "ms", Better::Lower, 0.25),
    spec("throughput_rps", "1/s", Better::Higher, 0.25),
    spec("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// A per-layer metric of `BENCHMARK.json`: every workload reports it in
/// a traced run, aggregated from the tracer's samples named `sample`
/// (span durations in ms, or values a layer reported about itself).
/// Layer metrics only some workloads have (drserve's, the load
/// generator's) are printed and written to the JSON file too.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub sample: &'static str,
    /// Mean of the samples (a share of 0/1 outcomes) instead of median.
    pub mean: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    sample: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        sample,
        mean: false,
    }
}

pub const PER_LAYER: [LayerSpec; 20] = [
    layer("pinplay.record.ms", "ms", Better::Lower, "pinplay.record"),
    layer("pinplay.encode.ms", "ms", Better::Lower, "pinplay.encode"),
    layer(
        "pinplay.encode.bytes",
        "bytes",
        Better::Lower,
        "pinplay.encode.bytes",
    ),
    layer("pinplay.decode.ms", "ms", Better::Lower, "pinplay.decode"),
    layer("drdebug.open.ms", "ms", Better::Lower, "drdebug.open"),
    layer(
        "slicer.collect.ms",
        "ms",
        Better::Lower,
        "slicer.collect.ms",
    ),
    layer(
        "slicer.collect.records",
        "count",
        Better::Lower,
        "slicer.collect.records",
    ),
    layer("slicer.merge.ms", "ms", Better::Lower, "slicer.merge.ms"),
    layer(
        "slicer.summarize.ms",
        "ms",
        Better::Lower,
        "slicer.summarize.ms",
    ),
    layer("slicer.index.ms", "ms", Better::Lower, "slicer.index.ms"),
    layer(
        "slicer.index.edges",
        "count",
        Better::Lower,
        "slicer.index.edges",
    ),
    layer(
        "slicer.traverse.ms_p50",
        "ms",
        Better::Lower,
        "slicer.traverse.ms",
    ),
    layer(
        "slicer.traverse.records",
        "count",
        Better::Lower,
        "slicer.traverse.records",
    ),
    layer("drdebug.slice.ms_p50", "ms", Better::Lower, "drdebug.slice"),
    LayerSpec {
        mean: true,
        ..layer(
            "drdebug.index_warm_frac",
            "frac",
            Better::Higher,
            "drdebug.index_warm",
        )
    },
    layer("pinplay.relog.ms", "ms", Better::Lower, "pinplay.relog"),
    layer(
        "pinplay.relog.kept_frac",
        "frac",
        Better::Lower,
        "pinplay.relog.kept_frac",
    ),
    layer(
        "pinplay.replay.slice_ms",
        "ms",
        Better::Lower,
        "pinplay.replay.slice",
    ),
    layer(
        "pinplay.replay.region_ms",
        "ms",
        Better::Lower,
        "pinplay.replay.region",
    ),
    layer("trace.overhead_frac", "frac", Better::Lower, ""),
];

/// Per-layer bound `compare` applies to timings (layer metrics have no
/// bound in `BENCHMARK.json`; a doubled layer moves its metric by +100%).
pub const LAYER_TIME_BOUND: f64 = 0.25;

/// How `compare` judges a metric: by its end-to-end spec; a per-layer
/// timing against [`LAYER_TIME_BOUND`]; a per-layer count (deterministic
/// for a seed) exactly; any other timing or rate like a layer timing;
/// everything else (shares, sample counts, load-generator health) is only
/// reported.
pub fn rule(name: &str, unit: &str) -> (Better, f64) {
    if let Some(s) = END_TO_END.iter().find(|s| s.name == name) {
        return (s.better, s.bound);
    }
    if let Some(l) = PER_LAYER.iter().find(|l| l.name == name) {
        return match l.unit {
            "ms" => (l.better, LAYER_TIME_BOUND),
            "count" | "bytes" => (Better::Exact, 0.0),
            _ => (Better::Info, 0.0),
        };
    }
    match unit {
        _ if name.starts_with("gen.") => (Better::Info, 0.0),
        "ms" => (Better::Lower, LAYER_TIME_BOUND),
        "1/s" => (Better::Higher, LAYER_TIME_BOUND),
        _ => (Better::Info, 0.0),
    }
}

/// An end-to-end metric, with its unit from [`END_TO_END`].
pub fn e2e(name: &'static str, value: f64) -> Metric {
    let spec = END_TO_END
        .iter()
        .find(|s| s.name == name)
        .expect("an end-to-end metric of BENCHMARK.json");
    metric(name, value, spec.unit)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, or answered wrongly.
    pub failed: u64,
    /// Answers that disagreed with the reference (a subset of `failed`).
    pub wrong: u64,
    /// End-to-end metrics plus workload-specific extras (sample counts,
    /// `max_rps_slo`, ...).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable notes (first mismatches, per-layer self time).
    pub notes: Vec<String>,
}

/// A JSON number: shortest round-trip form, so every measured digit is
/// kept. Timings are finite; anything else is a bug, rendered as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output: end-to-end metrics untraced, the
/// `BENCHMARK.json` per-layer metrics traced.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let chosen: Vec<&Metric> = if traced {
        PER_LAYER
            .iter()
            .filter_map(|l| o.layers.iter().find(|m| m.name == l.name))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|s| o.metrics.iter().find(|m| m.name == s.name))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.wrong == 0,
        o.attempted,
        o.failed,
        metrics_json(chosen.into_iter())
    )
}

/// Every metric of the run as one flat JSON document.
pub fn file_json(workload: &str, seed: u64, seconds: f64, traced: bool, o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {}, \"traced\": {traced}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        num(seconds),
        o.wrong == 0,
        o.attempted,
        o.failed,
        metrics_json(o.metrics.iter().chain(&o.layers))
    );
    out
}

/// `name value unit`, one metric per line.
pub fn lines(o: &Outcome) -> String {
    let mut out = String::new();
    for m in o.metrics.iter().chain(&o.layers) {
        let _ = writeln!(out, "{} {} {}", m.name, num(m.value), m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            wrong: 0,
            metrics: END_TO_END
                .iter()
                .map(|s| metric(s.name, 1.5, s.unit))
                .chain([metric("max_rps_slo", 200.0, "1/s")])
                .collect(),
            layers: PER_LAYER
                .iter()
                .map(|l| metric(l.name, 0.25, l.unit))
                .chain([metric("drserve.cache.index_builds", 3.0, "count")])
                .collect(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let o = outcome();
        let untraced = result_line(&o, false);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for s in &END_TO_END {
            assert!(untraced.contains(&format!("\"{}\": {{\"value\": 1.5", s.name)));
        }
        assert!(!untraced.contains("max_rps_slo"));
        let traced = result_line(&o, true);
        for l in &PER_LAYER {
            assert!(traced.contains(l.name));
        }
        assert!(!traced.contains("drserve."));
    }

    /// The constants here and `BENCHMARK.json` at the repository root
    /// describe the same metrics.
    #[test]
    fn specs_match_benchmark_json() {
        // The nearest `BENCHMARK.json` above the package is the root's.
        let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
            .expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for s in &END_TO_END {
            let better = if s.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                s.name, s.unit, s.bound
            );
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for l in &PER_LAYER {
            let better = if l.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"}}",
                l.name, l.unit
            );
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
    }
}
