//! Renders the bench JSON reports as one markdown summary.
//!
//! CI runs this after the bench smokes and appends the output to
//! `$GITHUB_STEP_SUMMARY`, so every run shows its headline numbers —
//! throughput, latency, cache hit rates, speedups — without anyone
//! downloading an artifact. Reads every `*.json` in the canonical bench
//! report directory ([`bench::report::bench_report_dir`]), or in the
//! directory given as the first argument.
//!
//! The reports are flat JSON objects written by the benches themselves,
//! so the extraction here is a small structural scan (string-aware,
//! depth-counting) rather than a full JSON parser: the vendored offline
//! `serde_json` stand-in deliberately rejects floats, and the reports are
//! full of them. A bench can add fields without touching this binary —
//! unknown keys simply land in that report's key/value table.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Headline metrics: (report, key, label, unit).
const HEADLINES: &[(&str, &str, &str, &str)] = &[
    (
        "stream",
        "incremental_speedup",
        "Streaming incremental-index speedup",
        "x",
    ),
    (
        "stream",
        "absorb_mb_per_s",
        "Stream absorb throughput",
        "MB/s",
    ),
    (
        "saturation",
        "saturation_speedup",
        "Saturation speedup (fleet vs ping-pong)",
        "x",
    ),
    (
        "saturation",
        "fleet_stats_rps",
        "Fleet stats throughput",
        "req/s",
    ),
    (
        "saturation",
        "p99_window_us",
        "Saturation p99 window latency",
        "us",
    ),
    (
        "serve",
        "stats_requests_per_sec",
        "Single-client stats throughput",
        "req/s",
    ),
    (
        "serve",
        "cache_speedup",
        "Slice cache speedup (cold vs hit)",
        "x",
    ),
    (
        "serve",
        "cache_hit_rate_percent",
        "Slice cache hit rate",
        "%",
    ),
    (
        "incremental",
        "warm_speedup",
        "Warm dependence-index speedup",
        "x",
    ),
    (
        "relog",
        "replay_speedup",
        "Slice-pinball replay speedup",
        "x",
    ),
    (
        "cluster",
        "forward_speedup",
        "Fleet forward speedup (warm owner vs cold recompute)",
        "x",
    ),
    (
        "cluster",
        "peer_cache_hit_ns",
        "Fleet peer-cache repeat latency",
        "ns",
    ),
    (
        "cluster",
        "fleet_index_builds",
        "DepIndex builds fleet-wide (hot digest)",
        "builds",
    ),
];

/// Splits the top level of a JSON object into `(key, raw value text)`
/// pairs. Values are kept verbatim (numbers, strings, nested arrays);
/// nesting is skipped structurally, with strings and escapes respected.
fn top_level_pairs(json: &str) -> Vec<(String, String)> {
    let bytes = json.as_bytes();
    let mut pairs = Vec::new();
    let mut i = match json.find('{') {
        Some(at) => at + 1,
        None => return pairs,
    };
    loop {
        // Key: the next string literal.
        let Some(key_start) = json[i..].find('"').map(|at| i + at + 1) else {
            return pairs;
        };
        let Some(key_end) = scan_string(bytes, key_start) else {
            return pairs;
        };
        let key = json[key_start..key_end].to_string();
        // Separator.
        let Some(colon) = json[key_end..].find(':').map(|at| key_end + at + 1) else {
            return pairs;
        };
        // Value: everything up to the comma or brace that closes it at
        // depth zero.
        let mut depth = 0i32;
        let mut at = colon;
        let value_end = loop {
            if at >= bytes.len() {
                break at;
            }
            match bytes[at] {
                b'"' => {
                    let Some(close) = scan_string(bytes, at + 1) else {
                        break bytes.len();
                    };
                    at = close;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth > 0 => depth -= 1,
                b'}' => break at,
                b',' if depth == 0 => break at,
                _ => {}
            }
            at += 1;
        };
        let value = json[colon..value_end].trim().to_string();
        let closed = value_end >= bytes.len() || bytes[value_end] == b'}';
        pairs.push((key, value));
        if closed {
            return pairs;
        }
        i = value_end + 1;
    }
}

/// Index just past the closing quote of a string starting at `from`
/// (first byte after the opening quote).
fn scan_string(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at < bytes.len() {
        match bytes[at] {
            b'\\' => at += 2,
            b'"' => return Some(at),
            _ => at += 1,
        }
    }
    None
}

fn render_value(raw: &str) -> String {
    let trimmed = raw.trim();
    let unquoted = trimmed
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(trimmed);
    if unquoted.len() > 60 {
        format!("{}…", &unquoted[..60].trim_end())
    } else {
        unquoted.to_string()
    }
}

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(bench::report::bench_report_dir);

    let mut reports: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            match std::fs::read_to_string(&path) {
                Ok(json) => {
                    reports.insert(stem.to_string(), top_level_pairs(&json));
                }
                Err(e) => eprintln!("skipping {}: {e}", path.display()),
            }
        }
    }

    println!("## Bench reports");
    println!();
    if reports.is_empty() {
        println!("_No bench reports found in `{}`._", dir.display());
        return;
    }

    let lookup = |report: &str, key: &str| -> Option<String> {
        reports
            .get(report)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| render_value(v))
    };
    let headline: Vec<(&str, String, &str)> = HEADLINES
        .iter()
        .filter_map(|(report, key, label, unit)| {
            lookup(report, key).map(|value| (*label, value, *unit))
        })
        .collect();
    if !headline.is_empty() {
        println!("| Metric | Value |");
        println!("| --- | ---: |");
        for (label, value, unit) in headline {
            println!("| {label} | {value} {unit} |");
        }
        println!();
    }

    for (name, pairs) in &reports {
        println!("<details><summary><code>{name}.json</code></summary>");
        println!();
        println!("| Key | Value |");
        println!("| --- | ---: |");
        for (key, value) in pairs {
            println!("| `{key}` | {} |", render_value(value));
        }
        println!();
        println!("</details>");
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_reports_split_into_pairs() {
        let json = "{\n  \"bench\": \"serve\",\n  \"cache_speedup\": 12.34,\n  \
                    \"n\": 19000\n}\n";
        let pairs = top_level_pairs(json);
        assert_eq!(
            pairs,
            vec![
                ("bench".to_string(), "\"serve\"".to_string()),
                ("cache_speedup".to_string(), "12.34".to_string()),
                ("n".to_string(), "19000".to_string()),
            ]
        );
        assert_eq!(render_value(&pairs[0].1), "serve");
    }

    #[test]
    fn nested_values_are_kept_verbatim() {
        let json = r#"{"points": [{"percent": 25, "speedup": 3.1}], "tail": 7}"#;
        let pairs = top_level_pairs(json);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "points");
        assert!(pairs[0].1.starts_with('['));
        assert_eq!(pairs[1], ("tail".to_string(), "7".to_string()));
    }

    #[test]
    fn escaped_quotes_do_not_desync_the_scan() {
        let json = r#"{"a": "say \"hi\", ok", "b": 1}"#;
        let pairs = top_level_pairs(json);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], ("b".to_string(), "1".to_string()));
    }
}
