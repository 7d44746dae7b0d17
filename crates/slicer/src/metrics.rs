//! Pipeline stage metrics for the slicing pipeline.
//!
//! The slicing pipeline has four stages — *collect* (one serial replay of
//! the region pinball, gathering the def/use trace in retire order),
//! *merge* (building the global trace, which keeps the collected records
//! as they are), *index* (the dependence index, one forward sweep over the
//! trace), and *traverse* (one backward slice query). [`SliceMetrics`]
//! carries per-stage wall time and work counters through `collect →
//! global → index → slice` so the debugger's `metrics` command and
//! `drdebug_cli` can report where time went and how many dependences
//! save/restore pruning bypassed.

use std::fmt;
use std::time::Duration;

/// Wall time and work volume of one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Wall-clock time the stage took.
    pub wall: Duration,
    /// Records the stage processed (trace records for collect/merge;
    /// records examined for traverse).
    pub records: u64,
}

impl StageMetrics {
    /// A stage measurement.
    pub fn new(wall: Duration, records: u64) -> StageMetrics {
        StageMetrics { wall, records }
    }
}

/// End-to-end metrics for one slicing pipeline run.
///
/// The collect/merge stages are filled once per
/// [`SliceSession::collect`](crate::SliceSession::collect); the traverse
/// stage describes the most recent slice query combined in by the caller
/// (each query returns its own [`SliceStats`](crate::SliceStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceMetrics {
    /// Replay + per-thread def/use trace collection.
    pub collect: StageMetrics,
    /// [`GlobalTrace::build`](crate::GlobalTrace::build) over the collected
    /// records, which become the global trace as they are. The name is the
    /// paper's merge stage, which a serial replay makes unnecessary.
    pub merge: StageMetrics,
    /// Always zero: no stage summarizes the trace. Kept only because
    /// drbench reports it as `slicer.summarize.ms`.
    pub summarize: StageMetrics,
    /// Dependence-index construction for the most recent slice (zero when
    /// the query was answered from a warm index — the build cost is paid at
    /// most once per option fingerprint).
    pub index_build: StageMetrics,
    /// Whether the most recent slice reused a cached dependence index
    /// instead of building one.
    pub warm_index: bool,
    /// The most recent backward traversal (zero until a slice is computed).
    pub traverse: StageMetrics,
    /// Save/restore dependences pruned (§5.2 bypasses) in the last
    /// traversal.
    pub bypasses: u64,
}

impl SliceMetrics {
    /// Returns a copy with the traverse-stage fields replaced by one
    /// query's statistics.
    pub fn with_traversal(
        mut self,
        stats: &crate::slice::SliceStats,
        wall: Duration,
    ) -> SliceMetrics {
        self.traverse = StageMetrics::new(wall, stats.records_scanned);
        self.bypasses = stats.bypasses;
        self
    }

    /// Returns a copy describing the most recent query's index usage:
    /// `wall`/`edges` are the build cost (both zero on a warm reuse), and
    /// `warm` records whether a cached index answered the query.
    pub fn with_index(mut self, wall: Duration, edges: u64, warm: bool) -> SliceMetrics {
        self.index_build = StageMetrics::new(wall, edges);
        self.warm_index = warm;
        self
    }
}

impl fmt::Display for SliceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "collect    {:>12?}  {:>10} records",
            self.collect.wall, self.collect.records
        )?;
        writeln!(
            f,
            "merge      {:>12?}  {:>10} records",
            self.merge.wall, self.merge.records
        )?;
        writeln!(
            f,
            "index      {:>12?}  {:>10} edges  {}",
            self.index_build.wall,
            self.index_build.records,
            if self.warm_index {
                "warm (reused)"
            } else {
                "cold (built)"
            }
        )?;
        writeln!(
            f,
            "traverse   {:>12?}  {:>10} scanned",
            self.traverse.wall, self.traverse.records
        )?;
        write!(f, "           dependences pruned {}", self.bypasses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SliceStats;

    #[test]
    fn traversal_stats_fold_in() {
        let base = SliceMetrics {
            collect: StageMetrics::new(Duration::from_millis(5), 100),
            ..SliceMetrics::default()
        };
        let stats = SliceStats {
            records_scanned: 42,
            bypasses: 1,
        };
        let m = base.with_traversal(&stats, Duration::from_micros(9));
        assert_eq!(m.traverse.records, 42);
        assert_eq!(m.traverse.wall, Duration::from_micros(9));
        assert_eq!(m.bypasses, 1);
        assert_eq!(m.collect.records, 100, "pipeline stages preserved");
        let text = m.to_string();
        assert!(text.contains("collect"));
        assert!(text.contains("dependences pruned 1"));
    }

    #[test]
    fn index_stage_folds_in_and_reports_warmth() {
        let cold = SliceMetrics::default().with_index(Duration::from_micros(120), 9000, false);
        assert_eq!(cold.index_build.records, 9000);
        assert!(!cold.warm_index);
        assert!(cold.to_string().contains("cold (built)"));

        let warm = cold.with_index(Duration::ZERO, 0, true);
        assert!(warm.warm_index);
        let text = warm.to_string();
        assert!(text.contains("warm (reused)"));
        assert!(text.contains("traverse"), "stage rows intact");
    }
}
