//! One canonical location for bench JSON reports.
//!
//! Every bench that emits a machine-readable report (`stream.json`,
//! `serve.json`, `saturation.json`, …) writes it through
//! [`write_report`], so the reports land in a single directory no matter
//! which crate directory cargo happens to run the bench from:
//!
//! - `$CARGO_TARGET_DIR/bench/` when the variable is set (CI sets it), or
//! - `<workspace>/target/bench/` otherwise, resolved from this crate's
//!   manifest directory — **not** from the process working directory,
//!   which differs between `cargo bench` invocations and was the cause of
//!   reports scattering across `crates/bench/target/` and `target/`.
//!
//! CI consumes exactly [`bench_report_dir`]: the artifact upload and the
//! step-summary table both read `target/bench/*.json` and nothing else.

use std::io;
use std::path::PathBuf;

/// The canonical bench-report directory (not yet created).
pub fn bench_report_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir).join("bench"),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join("bench"),
    }
}

/// Writes one report into [`bench_report_dir`], creating the directory,
/// and returns the path it landed at.
///
/// # Errors
///
/// Propagates directory-creation and write failures; benches treat those
/// as "report not written", never as a bench failure.
pub fn write_report(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = bench_report_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_dir_honors_cargo_target_dir_else_workspace_target() {
        // The env-var branch is what CI exercises; assert the fallback
        // resolves inside the workspace target, independent of cwd.
        let dir = bench_report_dir();
        assert!(dir.ends_with("bench"), "{dir:?}");
        if std::env::var_os("CARGO_TARGET_DIR").is_none() {
            assert!(
                dir.to_string_lossy().contains("target"),
                "fallback must be the workspace target dir: {dir:?}"
            );
        }
    }

    #[test]
    fn write_report_round_trips() {
        let path =
            write_report("report-helper-selftest.json", "{\"ok\":true}\n").expect("report written");
        let back = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(back, "{\"ok\":true}\n");
        let _ = std::fs::remove_file(path);
    }
}
