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
//! The merge is a Kahn topological sort that greedily stays on the current
//! thread — the paper's clustering trick ("we always try to cluster traces
//! for each thread to the extent possible to improve the locality of \[the\]
//! LP algorithm"). Program order needs no stored edge: each thread is
//! walked by a cursor over its own records. Only the cross-thread
//! constraints (spawn and conflicting accesses) are stored.
//!
//! Record ids are the replay's retire sequence, dense from 0, so a record's
//! position is one `u32` looked up by id. The trace is segmented into
//! fixed-size blocks, each summarising the set of locations it defines —
//! the block summaries the Limited Preprocessing traversal uses to skip
//! irrelevant blocks (Zhang et al., paper §3 step iii). Only that traversal
//! reads them, so they are built on its first call. The per-key definition
//! lists slicing resolves dependences from belong to
//! [`DepIndex`](crate::DepIndex).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use minivm::Tid;

use crate::trace::{LocKey, RecordId, TraceRecord};

/// Default LP block size (records per block).
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Summary of one LP block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSummary {
    /// Position range `[start, end)` in the globally ordered trace.
    pub start: usize,
    /// End of the range (exclusive).
    pub end: usize,
    /// Every location key defined by a record in the block (a superset of
    /// the downward-exposed definitions, which is sound for skipping).
    pub defs: HashSet<LocKey>,
}

/// The fully ordered multi-threaded trace, with LP block summaries.
#[derive(Debug)]
pub struct GlobalTrace {
    records: Vec<TraceRecord>,
    /// Record id -> position in `records` (ids are dense `0..n`).
    pos_of: Vec<u32>,
    /// The LP block summaries, built by the first [`GlobalTrace::blocks`].
    blocks: OnceLock<Vec<BlockSummary>>,
    block_size: usize,
    track_sp: bool,
}

impl GlobalTrace {
    /// Builds the global trace from records in *collection order* (which is
    /// the replay interleaving: one valid topological order). The records
    /// are re-ordered by the clustering merge, then segmented into blocks of
    /// `block_size`.
    ///
    /// # Panics
    ///
    /// As [`GlobalTrace::build_with`].
    pub fn build(collected: Vec<TraceRecord>, block_size: usize, track_sp: bool) -> GlobalTrace {
        GlobalTrace::build_with(collected, block_size, track_sp, true)
    }

    /// Like [`GlobalTrace::build`], with clustering controllable — the
    /// ablation of the paper's §3 locality trick ("we always try to cluster
    /// traces for each thread to the extent possible to improve the
    /// locality of \[the\] LP algorithm"). With `cluster` off, the trace
    /// keeps the raw replay interleaving (still a valid topological order).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero, if the record ids are not the dense
    /// retire sequence `0..n` in collection order, or if there are
    /// `u32::MAX` or more records.
    pub fn build_with(
        collected: Vec<TraceRecord>,
        block_size: usize,
        track_sp: bool,
        cluster: bool,
    ) -> GlobalTrace {
        assert!(block_size > 0, "block size must be positive");
        let mut trace = GlobalTrace {
            records: Vec::new(),
            pos_of: Vec::new(),
            blocks: OnceLock::new(),
            block_size,
            track_sp,
        };
        if cluster {
            check_ids(&collected, 0);
            let order = cluster_merge(&collected, track_sp);
            trace.pos_of = vec![0; order.len()];
            for (pos, &i) in order.iter().enumerate() {
                trace.pos_of[i] = pos as u32;
            }
            trace.records = order.into_iter().map(|i| collected[i]).collect();
        } else {
            trace.extend(collected);
        }
        trace
    }

    /// Appends `new_records` to the trace without disturbing the positions
    /// of existing records — the incremental path for a recording that is
    /// still streaming in.
    ///
    /// The suffix is appended in the given order, so the result equals a
    /// batch [`GlobalTrace::build_with`] of the full record list only when
    /// clustering is off (`cluster = false` keeps the raw interleaving,
    /// which appending preserves; the clustering merge may interleave new
    /// records among old positions). Block summaries built before are
    /// dropped; the next [`GlobalTrace::blocks`] builds them anew.
    ///
    /// # Panics
    ///
    /// Panics if the new records' ids do not continue the trace's dense
    /// retire sequence (`len..len + new_records.len()`, in order), or if
    /// the trace would reach `u32::MAX` records.
    pub fn extend(&mut self, new_records: Vec<TraceRecord>) {
        if new_records.is_empty() {
            return;
        }
        let old_n = self.records.len();
        check_ids(&new_records, old_n);
        self.pos_of
            .extend(old_n as u32..(old_n + new_records.len()) as u32);
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

    /// The records in global (clustered topological) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The LP block summaries, in position order. The first call builds
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

    /// The block size the trace was segmented with (block of position `p`
    /// is `p / block_size`).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Position of a record id in the global order, or `None` for an id
    /// at or past the end of the trace.
    pub fn position(&self, id: RecordId) -> Option<usize> {
        let slot = usize::try_from(id).ok()?;
        self.pos_of.get(slot).map(|&p| p as usize)
    }

    /// The record with the given id, or `None` for an id at or past the end
    /// of the trace.
    pub fn record(&self, id: RecordId) -> Option<&TraceRecord> {
        self.position(id).and_then(|p| self.records.get(p))
    }

    /// Finds the last record (by global position) satisfying `pred` — used
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
    assert!(
        first + records.len() < u32::MAX as usize,
        "trace too large for u32 positions"
    );
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.id == (first + i) as RecordId,
            "record ids must be the dense retire sequence: record {} has id {}",
            first + i,
            r.id
        );
    }
}

/// Computes the clustered topological order; returns indices into
/// `collected`.
///
/// Each thread's records are visited in collection order by a cursor, so
/// program order holds by construction. The cross-thread constraints — a
/// spawn before the child's first record, and conflicting accesses to one
/// address in collection order — are stored as one CSR adjacency, with a
/// count of unmet constraints per record. The walk stays on the current
/// thread while its next record has no unmet constraint, and otherwise
/// switches to the lowest tid whose next record has none.
fn cluster_merge(collected: &[TraceRecord], track_sp: bool) -> Vec<usize> {
    let n = collected.len();
    // Each thread's records, in collection (= program) order. Keyed by tid,
    // so that the thread slots below run in ascending tid order.
    let mut by_tid: BTreeMap<Tid, Vec<usize>> = BTreeMap::new();
    // Cross-thread edges (before, after), in order of `after`.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Spawn order: child tid -> spawning record.
    let mut spawner: HashMap<Tid, usize> = HashMap::new();
    // Conflict order per address: (last writer, readers since last write).
    #[derive(Default)]
    struct MemState {
        last_write: Option<usize>,
        reads_since: Vec<usize>,
    }
    let mut mem: HashMap<u64, MemState> = HashMap::new();

    for (i, r) in collected.iter().enumerate() {
        let run = by_tid.entry(r.tid).or_default();
        if run.is_empty() {
            if let Some(&sp) = spawner.get(&r.tid) {
                edges.push((sp, i));
            }
        }
        run.push(i);
        if let Some((child, _)) = r.spawned {
            spawner.insert(child, i);
        }
        // Conflicting accesses to shared memory.
        for (k, _) in r.use_keys(track_sp) {
            if let LocKey::Mem(a) = k {
                let st = mem.entry(a).or_default();
                if let Some(w) = st.last_write {
                    if collected[w].tid != r.tid {
                        edges.push((w, i));
                    }
                }
                st.reads_since.push(i);
            }
        }
        for (k, _) in r.def_keys(track_sp) {
            if let LocKey::Mem(a) = k {
                let st = mem.entry(a).or_default();
                // Write-after-read and write-after-write edges.
                for &rd in &st.reads_since {
                    if rd != i && collected[rd].tid != r.tid {
                        edges.push((rd, i));
                    }
                }
                if let Some(w) = st.last_write {
                    if collected[w].tid != r.tid {
                        edges.push((w, i));
                    }
                }
                st.last_write = Some(i);
                st.reads_since.clear();
            }
        }
    }

    // CSR by source: the successors of `i` are `succ[offsets[i]..offsets[i + 1]]`.
    let mut offsets = vec![0usize; n + 1];
    let mut unmet = vec![0u32; n];
    for &(before, after) in &edges {
        offsets[before + 1] += 1;
        unmet[after] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut succ = vec![0usize; edges.len()];
    for (before, after) in edges {
        succ[fill[before]] = after;
        fill[before] += 1;
    }

    // The walk, over thread slots in ascending tid order.
    let runs: Vec<Vec<usize>> = by_tid.into_values().collect();
    let mut cursor = vec![0usize; runs.len()];
    let mut order = Vec::with_capacity(n);
    let mut current = 0;
    while order.len() < n {
        let ready = |t: usize| runs[t].get(cursor[t]).is_some_and(|&i| unmet[i] == 0);
        if !ready(current) {
            // Every constraint points from an earlier collected record to a
            // later one, so no cycle can form: the earliest record not yet
            // placed is always ready.
            #[allow(clippy::expect_used)]
            let next = (0..runs.len())
                .find(|&t| ready(t))
                .expect("topological sort stalled: constraint cycle");
            current = next;
        }
        let i = runs[current][cursor[current]];
        cursor[current] += 1;
        order.push(i);
        for &s in &succ[offsets[i]..offsets[i + 1]] {
            unmet[s] -= 1;
        }
    }
    order
}

/// Checks that `order` (indices into `collected`) respects program order,
/// spawn order, and conflicting-access order. Exposed for property tests.
pub fn is_valid_topological_order(collected: &[TraceRecord], order: &[usize]) -> bool {
    let mut pos = vec![0usize; collected.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    // Program order per thread (ids ascend with time within a thread).
    let mut last: HashMap<Tid, usize> = HashMap::new();
    for (i, r) in collected.iter().enumerate() {
        if let Some(&prev) = last.get(&r.tid) {
            if pos[prev] >= pos[i] {
                return false;
            }
        }
        last.insert(r.tid, i);
    }
    // Conflict order: for every pair of records touching the same address
    // with at least one write, collection order must be preserved.
    let mut by_addr: HashMap<u64, Vec<(usize, bool)>> = HashMap::new();
    for (i, r) in collected.iter().enumerate() {
        for (k, _) in r.use_keys(true) {
            if let LocKey::Mem(a) = k {
                by_addr.entry(a).or_default().push((i, false));
            }
        }
        for (k, _) in r.def_keys(true) {
            if let LocKey::Mem(a) = k {
                by_addr.entry(a).or_default().push((i, true));
            }
        }
    }
    for accesses in by_addr.values() {
        for (x, &(i, wi)) in accesses.iter().enumerate() {
            for &(j, wj) in &accesses[x + 1..] {
                if (wi || wj) && i != j && pos[i] >= pos[j] {
                    return false;
                }
            }
        }
    }
    // Spawn order.
    let mut first_of: HashMap<Tid, usize> = HashMap::new();
    for (i, r) in collected.iter().enumerate() {
        first_of.entry(r.tid).or_insert(i);
    }
    for (i, r) in collected.iter().enumerate() {
        if let Some((child, _)) = r.spawned {
            if let Some(&f) = first_of.get(&child) {
                if pos[i] >= pos[f] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{Instr, Loc, Reg};
    use proptest::prelude::*;

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

    /// The slow oracle for [`cluster_merge`]: a textbook Kahn sort that
    /// stores every constraint, program order included, as a successor
    /// list per record, with the same clustering choice rule.
    fn kahn_reference(collected: &[TraceRecord], track_sp: bool) -> Vec<usize> {
        let n = collected.len();
        // Edges: successor lists + indegrees.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg: Vec<u32> = vec![0; n];
        let edge = |succ: &mut Vec<Vec<usize>>, indeg: &mut Vec<u32>, a: usize, b: usize| {
            succ[a].push(b);
            indeg[b] += 1;
        };

        // Program order.
        let mut last_of_thread: HashMap<Tid, usize> = HashMap::new();
        // Spawn order: child tid -> spawning record.
        let mut spawner: HashMap<Tid, usize> = HashMap::new();
        // Conflict order per address: (last writer, readers since last write).
        struct MemState {
            last_write: Option<usize>,
            reads_since: Vec<usize>,
        }
        let mut mem: HashMap<u64, MemState> = HashMap::new();

        for (i, r) in collected.iter().enumerate() {
            if let Some(&prev) = last_of_thread.get(&r.tid) {
                edge(&mut succ, &mut indeg, prev, i);
            } else if let Some(&sp) = spawner.get(&r.tid) {
                edge(&mut succ, &mut indeg, sp, i);
            }
            last_of_thread.insert(r.tid, i);
            if let Some((child, _)) = r.spawned {
                spawner.insert(child, i);
            }
            // Conflicting accesses to shared memory.
            for (k, _) in r.use_keys(track_sp) {
                if let LocKey::Mem(a) = k {
                    let st = mem.entry(a).or_insert(MemState {
                        last_write: None,
                        reads_since: Vec::new(),
                    });
                    if let Some(w) = st.last_write {
                        if collected[w].tid != r.tid {
                            edge(&mut succ, &mut indeg, w, i);
                        }
                    }
                    st.reads_since.push(i);
                }
            }
            for (k, _) in r.def_keys(track_sp) {
                if let LocKey::Mem(a) = k {
                    let st = mem.entry(a).or_insert(MemState {
                        last_write: None,
                        reads_since: Vec::new(),
                    });
                    // Write-after-read and write-after-write edges.
                    for &rd in &st.reads_since {
                        if rd != i && collected[rd].tid != r.tid {
                            edge(&mut succ, &mut indeg, rd, i);
                        }
                    }
                    if let Some(w) = st.last_write {
                        if collected[w].tid != r.tid {
                            edge(&mut succ, &mut indeg, w, i);
                        }
                    }
                    st.last_write = Some(i);
                    st.reads_since.clear();
                }
            }
        }

        // Kahn with thread-clustering: prefer the thread we are already on.
        let mut ready_by_thread: HashMap<Tid, Vec<usize>> = HashMap::new();
        let mut ready_threads: Vec<Tid> = Vec::new();
        for (i, r) in collected.iter().enumerate() {
            if indeg[i] == 0 {
                let q = ready_by_thread.entry(r.tid).or_default();
                if q.is_empty() {
                    ready_threads.push(r.tid);
                }
                q.push(i);
            }
        }
        // Per-thread ready queues hold records in program order because each
        // thread's records form a chain; reverse to pop from the back cheaply.
        for q in ready_by_thread.values_mut() {
            q.reverse();
        }

        let mut order = Vec::with_capacity(n);
        let mut current: Option<Tid> = None;
        while order.len() < n {
            let tid = match current {
                Some(t) if ready_by_thread.get(&t).is_some_and(|q| !q.is_empty()) => t,
                _ => {
                    // Switch to the lowest ready thread for determinism.
                    let t = ready_threads
                        .iter()
                        .copied()
                        .filter(|t| ready_by_thread.get(t).is_some_and(|q| !q.is_empty()))
                        .min()
                        .expect("topological sort stalled: constraint cycle");
                    current = Some(t);
                    t
                }
            };
            let i = ready_by_thread
                .get_mut(&tid)
                .expect("selected thread has a queue")
                .pop()
                .expect("selected thread queue non-empty");
            order.push(i);
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    let st = collected[s].tid;
                    let q = ready_by_thread.entry(st).or_default();
                    if q.is_empty() && !ready_threads.contains(&st) {
                        ready_threads.push(st);
                    }
                    // Queues are kept in descending id order (pop from the back
                    // yields the earliest record). In practice a thread has at
                    // most one ready record — program-order edges chain them —
                    // but keep the insert correct regardless.
                    let at = q
                        .iter()
                        .position(|&x| collected[x].id < collected[s].id)
                        .unwrap_or(q.len());
                    q.insert(at, s);
                }
            }
        }
        order
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
    fn clustering_groups_independent_threads() {
        // Interleaved but independent records: clustering should group each
        // thread's records contiguously.
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(1, 1, &[], &[(Loc::Reg(Reg(1)), 2)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(2)), 3)]),
            rec(3, 1, &[], &[(Loc::Reg(Reg(2)), 4)]),
        ];
        let gt = GlobalTrace::build(collected.clone(), 16, false);
        let ids: Vec<_> = gt.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2, 1, 3], "thread 0 clustered, then thread 1");
        let order: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        assert!(is_valid_topological_order(&collected, &order));
    }

    #[test]
    fn conflicting_access_blocks_clustering() {
        // t0 writes M, t1 reads M, t0 then reads what t1 wrote: the merge
        // cannot fully cluster; order constraints must hold.
        let m = 0x1000;
        let k = 0x2000;
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Mem(m), 1)]),
            rec(1, 1, &[(Loc::Mem(m), 1)], &[(Loc::Mem(k), 2)]),
            rec(2, 0, &[(Loc::Mem(k), 2)], &[]),
        ];
        let gt = GlobalTrace::build(collected.clone(), 16, false);
        let ids: Vec<_> = gt.records().iter().map(|r| r.id).collect();
        let order: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        assert!(is_valid_topological_order(&collected, &order));
        let p0 = gt.position(0).unwrap();
        let p1 = gt.position(1).unwrap();
        let p2 = gt.position(2).unwrap();
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
        let p_spawn = gt.position(0).unwrap();
        let p_child = gt.position(1).unwrap();
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
        let mut gt = GlobalTrace::build_with(
            vec![rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)])],
            16,
            false,
            false,
        );
        gt.extend(vec![rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 2)])]);
    }

    #[test]
    fn ids_at_or_past_the_end_have_no_position() {
        let collected: Vec<TraceRecord> = (0..5)
            .map(|i| rec(i, (i % 2) as Tid, &[], &[(Loc::Reg(Reg(1)), i as i64)]))
            .collect();
        for cluster in [true, false] {
            let mut gt = GlobalTrace::build_with(collected[..3].to_vec(), 2, false, cluster);
            for id in [3, u64::MAX] {
                assert_eq!(gt.position(id), None, "id {id}, cluster {cluster}");
                assert!(gt.record(id).is_none(), "id {id}, cluster {cluster}");
            }
            gt.extend(collected[3..].to_vec());
            for id in [5, u64::MAX] {
                assert_eq!(gt.position(id), None, "id {id}, cluster {cluster}");
                assert!(gt.record(id).is_none(), "id {id}, cluster {cluster}");
            }
            for r in &collected {
                assert_eq!(gt.record(r.id), Some(r), "cluster {cluster}");
            }
        }
    }

    #[test]
    fn extend_drops_stale_summaries() {
        let collected = vec![
            rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]),
            rec(1, 0, &[], &[(Loc::Mem(0x1000), 2)]),
            rec(2, 0, &[], &[(Loc::Reg(Reg(2)), 3)]),
        ];
        let mut gt = GlobalTrace::build_with(collected[..1].to_vec(), 2, false, false);
        assert_eq!(gt.block_size(), 2);
        assert_eq!(gt.blocks().len(), 1);
        assert!(!gt.blocks()[0].defs.contains(&LocKey::Mem(0x1000)));
        gt.extend(collected[1..].to_vec());
        let batch = GlobalTrace::build_with(collected, 2, false, false);
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
            let mut grown = GlobalTrace::build_with(collected[..split].to_vec(), 32, false, false);
            grown.extend(collected[split..].to_vec());
            let batch = GlobalTrace::build_with(collected.clone(), 32, false, false);
            assert_eq!(grown.records(), batch.records());
            assert_eq!(grown.blocks(), batch.blocks());
            for r in &collected {
                assert_eq!(grown.position(r.id), batch.position(r.id));
            }
        }
    }

    #[test]
    fn unclustered_build_keeps_the_collected_vector() {
        let mut collected = Vec::with_capacity(64);
        collected.push(rec(0, 0, &[], &[(Loc::Reg(Reg(1)), 1)]));
        let at = collected.as_ptr();
        let gt = GlobalTrace::build_with(collected, 16, false, false);
        assert_eq!(
            gt.records().as_ptr(),
            at,
            "no gather through the identity order"
        );
        assert!(
            gt.records.capacity() >= 64,
            "spare capacity kept for `extend`"
        );
    }

    /// A synthetic collection order. Each step picks a live thread and an
    /// operation: a load, a store, an atomic read-modify-write, a copy
    /// between addresses (sometimes onto itself), a register-only
    /// instruction, or a spawn of a not-yet-live thread. The first thread
    /// is live from the start, as is each other thread whose `born_live`
    /// bit is set. Tids are sparse and not in order of appearance.
    fn synthetic_trace(threads: usize, born_live: u8, steps: &[(u8, u8, u8)]) -> Vec<TraceRecord> {
        const TIDS: [Tid; 6] = [40, 7, 1_000_003, 0, 65, 12];
        const ADDRS: [u64; 3] = [0x1000, 0x1008, 0x2000];
        let mut live = vec![TIDS[0]];
        let mut unborn = Vec::new();
        for (k, &tid) in TIDS[1..threads].iter().enumerate() {
            if born_live & (1 << k) != 0 {
                live.push(tid);
            } else {
                unborn.push(tid);
            }
        }
        let mut collected = Vec::with_capacity(steps.len());
        for (i, &(pick, op, addr)) in steps.iter().enumerate() {
            let id = i as RecordId;
            let tid = live[pick as usize % live.len()];
            let a = addr as usize;
            let m = Loc::Mem(ADDRS[a % ADDRS.len()]);
            let other = Loc::Mem(ADDRS[(a + op as usize / 6) % ADDRS.len()]);
            let reg = Loc::Reg(Reg(1 + addr % 4));
            let r = match op % 6 {
                0 => rec(id, tid, &[(m, 0)], &[(reg, 0)]),
                1 => rec(id, tid, &[(reg, 0)], &[(m, 0)]),
                2 => rec(id, tid, &[(m, 0), (reg, 0)], &[(m, 0), (reg, 0)]),
                3 => rec(id, tid, &[(m, 0)], &[(other, 0)]),
                4 => rec(id, tid, &[(reg, 0)], &[(Loc::Reg(Reg(2)), 0)]),
                _ => {
                    let mut r = rec(id, tid, &[], &[]);
                    if let Some(child) = unborn.pop() {
                        r.spawned = Some((child, 0));
                        live.push(child);
                    }
                    r
                }
            };
            collected.push(r);
        }
        collected
    }

    proptest! {
        #[test]
        fn cursor_merge_matches_the_kahn_reference(
            threads in 1usize..7,
            born_live in any::<u8>(),
            steps in proptest::collection::vec((any::<u8>(), 0u8..18, any::<u8>()), 0..160),
            track_sp in any::<bool>(),
        ) {
            let collected = synthetic_trace(threads, born_live, &steps);
            let order = cluster_merge(&collected, track_sp);
            prop_assert_eq!(&order, &kahn_reference(&collected, track_sp));
            prop_assert!(is_valid_topological_order(&collected, &order));
        }
    }
}
