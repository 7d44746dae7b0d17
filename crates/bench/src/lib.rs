//! Shared machinery for regenerating the paper's tables and figures.
//!
//! The `paper_tables` binary drives [`tables`]; the gates under `tests/`
//! and the `seek` and `stream` benches reuse the same helpers at smaller
//! sizes. See `EXPERIMENTS.md`
//! at the repository root for the paper-vs-measured record.

pub mod corpus;
pub mod exp;
pub mod serveload;
pub mod tables;

use std::time::{Duration, Instant};

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Formats a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in KB.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}
