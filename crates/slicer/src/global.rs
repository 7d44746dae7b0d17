//! Global trace construction (paper §3, step ii).
//!
//! Per-thread traces are combined into "a single fully ordered trace such
//! that each instruction in the trace honors its dynamic data dependences
//! including all read-after-write, write-after-write, and write-after-read
//! dependences". The order constraints are:
//!
//! * **program order** — consecutive records of the same thread;
//! * **shared-memory access order** — consecutive *conflicting* accesses
//!   (at least one write) to the same address, in the order the replay
//!   produced them (this is the information "already available in a
//!   pinball, as it is needed for replay");
//! * **spawn order** — a `spawn` precedes every record of the child thread.
//!
//! The paper merges per-thread traces and clusters each thread's records
//! ("we always try to cluster traces for each thread to the extent
//! possible to improve the locality of \[the\] LP algorithm"). This
//! reproduction collects in one serial replay, whose retire order honours
//! all three constraints by construction, so the global trace *is* the
//! retire order and a record's position is its id. A clustered merge
//! would only re-sort an order that is already valid, at the cost of an
//! id↔position map in every reader, and a value slice resolved over it
//! could name a write that retired after the point being explained. Nor
//! does this reproduction run LP: slices are answered through the
//! [`DepIndex`](crate::DepIndex), which also holds the per-key definition
//! lists slicing resolves dependences from.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::trace::{RecordId, TraceRecord};

/// The fully ordered multi-threaded trace: the replay's retire order,
/// record `i` having id `i`.
#[derive(Debug)]
pub struct GlobalTrace {
    records: Vec<TraceRecord>,
}

impl GlobalTrace {
    /// Builds the global trace from records in *collection order*, the
    /// replay's retire order, keeping the collected vector as it is.
    ///
    /// # Panics
    ///
    /// Panics if the record ids are not the dense retire sequence `0..n`
    /// in collection order.
    pub fn build(collected: Vec<TraceRecord>) -> GlobalTrace {
        check_ids(&collected);
        GlobalTrace { records: collected }
    }

    /// The records in retire order: `records()[i].id == i`.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The record with the given id, or `None` for an id at or past the end
    /// of the trace.
    pub fn record(&self, id: RecordId) -> Option<&TraceRecord> {
        self.records.get(usize::try_from(id).ok()?)
    }

    /// Finds the last record (in retire order) satisfying `pred` — used
    /// to resolve slice criteria like "the last write to variable x".
    pub fn rfind(&self, mut pred: impl FnMut(&TraceRecord) -> bool) -> Option<&TraceRecord> {
        self.records.iter().rev().find(|r| pred(r))
    }
}

/// Checks that `records` carry the ids `0..records.len()`, in order: the
/// replay's retire counter starts at 0 at region entry and rises by one
/// per retired instruction, and collection keeps one record per retired
/// instruction, so a record's id is its collection index.
fn check_ids(records: &[TraceRecord]) {
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.id == i as RecordId,
            "record ids must be the dense retire sequence: record {i} has id {}",
            r.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LocKey;
    use minivm::{Instr, Loc, Reg, Tid};

    fn rec(id: RecordId, tid: Tid, uses: &[(Loc, i64)], defs: &[(Loc, i64)]) -> TraceRecord {
        TraceRecord {
            id,
            tid,
            pc: id as u32,
            instance: 1,
            instr: Instr::Nop,
            next_pc: id as u32 + 1,
            uses: uses.iter().copied().collect(),
            defs: defs.iter().copied().collect(),
            spawned: None,
            cd_parent: None,
            line: 0,
        }
    }

    /// Where the record with `id` sits in the trace.
    fn position(gt: &GlobalTrace, id: RecordId) -> usize {
        gt.records()
            .iter()
            .position(|r| r.id == id)
            .expect("record in the trace")
    }

    #[test]
    fn single_thread_order_preserved() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(1, 0, &[(Loc::Reg(Reg(1)), 1)], &[]),
        ];
        let gt = GlobalTrace::build(collected);
        let ids: Vec<_> = gt.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn conflicting_access_blocks_clustering() {
        // t0 writes M, t1 reads M, t0 then reads what t1 wrote: the order
        // constraints must hold.
        let m = 0x1000;
        let k = 0x2000;
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Mem(m), 1)]),
            rec(1, 1, &[(Loc::Mem(m), 1)], &[(Loc::Mem(k), 2)]),
            rec(2, 0, &[(Loc::Mem(k), 2)], &[]),
        ];
        let gt = GlobalTrace::build(collected);
        let p0 = position(&gt, 0);
        let p1 = position(&gt, 1);
        let p2 = position(&gt, 2);
        assert!(p0 < p1 && p1 < p2);
    }

    #[test]
    fn spawn_edge_enforced() {
        let mut spawn = rec(0, 0, &[], &[]);
        spawn.spawned = Some((1, 7));
        let collected = vec![spawn, rec(1, 1, &[(Loc::Reg(Reg(0)), 7)], &[])];
        let gt = GlobalTrace::build(collected.clone());
        let p_spawn = position(&gt, 0);
        let p_child = position(&gt, 1);
        assert!(p_spawn < p_child);
    }

    #[test]
    fn rfind_locates_last_matching() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Mem(0x1000), 1)]),
            rec(1, 0, &[], &[(Loc::Mem(0x1000), 2)]),
        ];
        let gt = GlobalTrace::build(collected);
        let r = gt
            .rfind(|r| r.def_keys(false).any(|(k, _)| k == LocKey::Mem(0x1000)))
            .unwrap();
        assert_eq!(r.id, 1);
    }

    #[test]
    #[should_panic(expected = "dense retire sequence")]
    fn build_rejects_ids_that_are_not_dense() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(1)), 2)]),
        ];
        let _ = GlobalTrace::build(collected);
    }

    #[test]
    fn ids_at_or_past_the_end_have_no_record() {
        let collected: Vec<TraceRecord> = (0..5)
            .map(|i| rec(i, (i % 2) as Tid, &[], &[(Loc::Reg(Reg(1)), i as i64)]))
            .collect();
        let gt = GlobalTrace::build(collected.clone());
        for id in [5, u64::MAX] {
            assert!(gt.record(id).is_none(), "id {id}");
        }
        for r in &collected {
            assert_eq!(gt.record(r.id), Some(r));
        }
    }

    #[test]
    fn build_keeps_the_collected_vector() {
        let collected = vec![rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)])];
        let at = collected.as_ptr();
        let gt = GlobalTrace::build(collected);
        assert_eq!(gt.records().as_ptr(), at, "no copy of the records");
    }
}
