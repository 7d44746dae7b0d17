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
//! could name a write that retired after the point being explained.
//!
//! The trace is segmented into fixed-size blocks, each summarising the set
//! of locations it defines — the block summaries the Limited Preprocessing
//! traversal uses to skip irrelevant blocks (Zhang et al., paper §3 step
//! iii). Only that traversal reads them, so they are built on its first
//! call. The per-key definition lists slicing resolves dependences from
//! belong to [`DepIndex`](crate::DepIndex).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashSet;
use std::sync::OnceLock;

use crate::trace::{LocKey, RecordId, TraceRecord};

/// Default LP block size (records per block).
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Summary of one LP block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSummary {
    /// Id range `[start, end)` of the block's records.
    pub start: usize,
    /// End of the range (exclusive).
    pub end: usize,
    /// Every location key defined by a record in the block (a superset of
    /// the downward-exposed definitions, which is sound for skipping).
    pub defs: HashSet<LocKey>,
}

/// The fully ordered multi-threaded trace — the replay's retire order,
/// record `i` having id `i` — with LP block summaries.
#[derive(Debug)]
pub struct GlobalTrace {
    records: Vec<TraceRecord>,
    /// The LP block summaries, built by the first [`GlobalTrace::blocks`].
    blocks: OnceLock<Vec<BlockSummary>>,
    block_size: usize,
    track_sp: bool,
}

impl GlobalTrace {
    /// Builds the global trace from records in *collection order*, the
    /// replay's retire order, keeping the collected vector as it is. The
    /// trace is segmented into blocks of `block_size`.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero, or if the record ids are not the
    /// dense retire sequence `0..n` in collection order.
    pub fn build(collected: Vec<TraceRecord>, block_size: usize, track_sp: bool) -> GlobalTrace {
        assert!(block_size > 0, "block size must be positive");
        let mut trace = GlobalTrace {
            records: Vec::new(),
            blocks: OnceLock::new(),
            block_size,
            track_sp,
        };
        trace.extend(collected);
        trace
    }

    /// Appends `new_records` to the trace — the incremental path for a
    /// recording that is still streaming in. The result equals a batch
    /// [`GlobalTrace::build`] of the full record list. Block summaries
    /// built before are dropped; the next [`GlobalTrace::blocks`] builds
    /// them anew.
    ///
    /// # Panics
    ///
    /// Panics if the new records' ids do not continue the trace's dense
    /// retire sequence (`len..len + new_records.len()`, in order).
    pub fn extend(&mut self, new_records: Vec<TraceRecord>) {
        if new_records.is_empty() {
            return;
        }
        check_ids(&new_records, self.records.len());
        if self.records.is_empty() {
            // Keep the caller's vector, and any spare capacity a later
            // `extend` can use.
            self.records = new_records;
        } else {
            self.records.extend(new_records);
        }
        self.blocks = OnceLock::new();
    }

    /// Whether stack-pointer registers participate in dependence tracking.
    pub fn track_sp(&self) -> bool {
        self.track_sp
    }

    /// The records in retire order: `records()[i].id == i`.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The LP block summaries, in id order. The first call builds
    /// them; later calls, until the next [`GlobalTrace::extend`], return
    /// the same summaries.
    pub fn blocks(&self) -> &[BlockSummary] {
        self.blocks.get_or_init(|| {
            self.records
                .chunks(self.block_size)
                .enumerate()
                .map(|(b, block)| BlockSummary {
                    start: b * self.block_size,
                    end: b * self.block_size + block.len(),
                    defs: block
                        .iter()
                        .flat_map(|r| r.def_keys(self.track_sp).map(|(k, _)| k))
                        .collect(),
                })
                .collect()
        })
    }

    /// The block size the trace was segmented with (block of record `id`
    /// is `id / block_size`).
    pub fn block_size(&self) -> usize {
        self.block_size
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

/// Checks that `records` carry the ids `first..first + records.len()`, in
/// order: the replay's retire counter starts at 0 at region entry and
/// rises by one per retired instruction, and collection keeps one record
/// per retired instruction, so a record's id is its collection index.
fn check_ids(records: &[TraceRecord], first: usize) {
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.id == (first + i) as RecordId,
            "record ids must be the dense retire sequence: record {} has id {}",
            first + i,
            r.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let gt = GlobalTrace::build(collected, 16, false);
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
        let gt = GlobalTrace::build(collected, 16, false);
        let p0 = position(&gt, 0);
        let p1 = position(&gt, 1);
        let p2 = position(&gt, 2);
        assert!(p0 < p1 && p1 < p2);
    }

    #[test]
    fn block_summaries_cover_defs() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(1, 0, &[], &[(Loc::Mem(0x1000), 2)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(2)), 3)]),
        ];
        let gt = GlobalTrace::build(collected, 2, false);
        assert_eq!(gt.blocks().len(), 2);
        assert!(gt.blocks()[0].defs.contains(&LocKey::Reg(0, Reg(1))));
        assert!(gt.blocks()[0].defs.contains(&LocKey::Mem(0x1000)));
        assert!(gt.blocks()[1].defs.contains(&LocKey::Reg(0, Reg(2))));
    }

    #[test]
    fn spawn_edge_enforced() {
        let mut spawn = rec(0, 0, &[], &[]);
        spawn.spawned = Some((1, 7));
        let collected = vec![spawn, rec(1, 1, &[(Loc::Reg(Reg(0)), 7)], &[])];
        let gt = GlobalTrace::build(collected.clone(), 16, false);
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
        let gt = GlobalTrace::build(collected, 16, false);
        let r = gt
            .rfind(|r| r.def_keys(false).any(|(k, _)| k == LocKey::Mem(0x1000)))
            .unwrap();
        assert_eq!(r.id, 1);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = GlobalTrace::build(Vec::new(), 0, false);
    }

    #[test]
    #[should_panic(expected = "dense retire sequence")]
    fn build_rejects_ids_that_are_not_dense() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(1)), 2)]),
        ];
        let _ = GlobalTrace::build(collected, 16, false);
    }

    #[test]
    #[should_panic(expected = "dense retire sequence")]
    fn extend_rejects_a_repeated_id() {
        let mut gt = GlobalTrace::build(vec![rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)])], 16, false);
        gt.extend(vec![rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 2)])]);
    }

    #[test]
    fn ids_at_or_past_the_end_have_no_record() {
        let collected: Vec<TraceRecord> = (0..5)
            .map(|i| rec(i, (i % 2) as Tid, &[], &[(Loc::Reg(Reg(1)), i as i64)]))
            .collect();
        let mut gt = GlobalTrace::build(collected[..3].to_vec(), 2, false);
        for id in [3, u64::MAX] {
            assert!(gt.record(id).is_none(), "id {id}");
        }
        gt.extend(collected[3..].to_vec());
        for id in [5, u64::MAX] {
            assert!(gt.record(id).is_none(), "id {id}");
        }
        for r in &collected {
            assert_eq!(gt.record(r.id), Some(r));
        }
    }

    #[test]
    fn extend_drops_stale_summaries() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(1, 0, &[], &[(Loc::Mem(0x1000), 2)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(2)), 3)]),
        ];
        let mut gt = GlobalTrace::build(collected[..1].to_vec(), 2, false);
        assert_eq!(gt.block_size(), 2);
        assert_eq!(gt.blocks().len(), 1);
        assert!(!gt.blocks()[0].defs.contains(&LocKey::Mem(0x1000)));
        gt.extend(collected[1..].to_vec());
        let batch = GlobalTrace::build(collected, 2, false);
        assert_eq!(gt.blocks(), batch.blocks());
        assert_eq!(gt.blocks().len(), 2);
        assert!(gt.blocks()[0].defs.contains(&LocKey::Mem(0x1000)));
        assert_eq!((gt.blocks()[1].start, gt.blocks()[1].end), (2, 3));
    }

    #[test]
    fn extend_matches_batch_build_at_every_prefix() {
        let collected: Vec<TraceRecord> = (0..300usize)
            .map(|i| {
                let def = match i % 3 {
                    0 => (Loc::Reg(Reg((i % 7) as u8 + 1)), i as i64),
                    1 => (Loc::Mem(0x1000 + (i % 11) as u64 * 8), i as i64),
                    _ => (Loc::Reg(Reg(9)), i as i64),
                };
                let uses = if i % 5 == 0 {
                    vec![(Loc::Mem(0x1000 + (i % 11) as u64 * 8), i as i64)]
                } else {
                    vec![]
                };
                let mut r = rec(i as RecordId, 0, &uses, &[def]);
                if i % 13 == 0 {
                    r.cd_parent = i.checked_sub(4).map(|p| p as RecordId);
                }
                r
            })
            .collect();
        // Awkward split points: straddle block boundaries (block size 32).
        for split in [0usize, 1, 31, 32, 33, 150, 299, 300] {
            let mut grown = GlobalTrace::build(collected[..split].to_vec(), 32, false);
            grown.extend(collected[split..].to_vec());
            let batch = GlobalTrace::build(collected.clone(), 32, false);
            assert_eq!(grown.records(), batch.records());
            assert_eq!(grown.blocks(), batch.blocks());
        }
    }

    #[test]
    fn build_keeps_the_collected_vector() {
        let mut collected = Vec::with_capacity(64);
        collected.push(rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]));
        let at = collected.as_ptr();
        let gt = GlobalTrace::build(collected, 16, false);
        assert_eq!(gt.records().as_ptr(), at, "no copy of the records");
        assert!(
            gt.records.capacity() >= 64,
            "spare capacity kept for `extend`"
        );
    }
}
