//! Reusable dependence index: the whole dynamic dependence graph, built
//! once per `(GlobalTrace, SliceOptions)`.
//!
//! DrDebug's premise is *cyclic* debugging (paper §2, §4): the user replays
//! the same pinball over and over, slicing at different criteria as their
//! hypothesis evolves. Every backward traversal over the same trace
//! re-derives the same reaching definitions, because resolution is a pure
//! function of the trace, the save/restore pairs, and the pruning options —
//! the criterion only chooses where the walk *starts*. [`DepIndex`]
//! precomputes that function for every record: interned [`LocKey`]s (u32
//! ids), struct-of-arrays record storage, and the immediate data/control
//! dependence edges in CSR form, with §5.2 save/restore bypass chains baked
//! into the edge targets. [`compute_slice_indexed`] is then a pure BFS over
//! the CSR arrays — no `HashMap` probes, no live-set bookkeeping, no
//! rescan — and produces slices byte-identical (criterion, records, data
//! edges, control edges) to the naive backward scan,
//! [`compute_slice_naive`], its oracle.
//!
//! This is Zhang, Gupta and Zhang's full-preprocessing algorithm, from the
//! paper that also gives the Limited Preprocessing scan DrDebug cites. It
//! is the one traversal every slice takes: one collected trace serves many
//! slices (paper §7), and a one-shot slice
//! ([`SliceSession::slice`](crate::SliceSession::slice)) is a build plus
//! one walk.
//!
//! One serial forward sweep over the trace builds the index, and the index
//! is the trace's only per-key definition table. For each record in
//! retire order, every key is interned once; every non-pruned use
//! resolves in O(1) from its key's latest definition slot, which already
//! holds the bypass-resolved target; only then are the record's own
//! definitions pushed, so a use by record `p` sees only definitions by
//! records below `p`. The trace's positions are its record ids, so every
//! array here is indexed by id. [`DepIndex::build`] runs the sweep over
//! the whole trace, and [`DepIndex::append`] continues it over a streamed
//! suffix.
//!
//! Traversal statistics on an indexed slice are a deterministic function of
//! the index and the criterion, but they are *advisory* relative to the
//! naive scan: the BFS touches only slice members, so `records_scanned`
//! equals the slice size minus the criterion, and `bypasses` counts the
//! bypass links baked into the edges the query actually crossed, once per
//! record and key (a record that reads one register twice, as `add r2,
//! r1, r1` does, crosses its bypass once, as in the naive scan).
//!
//! [`compute_slice_naive`]: crate::slice::compute_slice_naive

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::global::GlobalTrace;
use crate::slice::{Criterion, DataEdge, Slice, SliceOptions, SliceStats};
use crate::trace::{LocKey, RecordId};

/// Sentinel for "no record" in the u32-packed arrays.
const NONE: u32 = u32::MAX;

/// Timings and sizes from one [`DepIndex::build`] or [`DepIndex::append`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexBuildStats {
    /// Wall time of the whole build.
    pub wall: Duration,
    /// Distinct location keys interned.
    pub keys: usize,
    /// Immediate data-dependence edges stored.
    pub edges: usize,
    /// Save/restore bypass links folded into edge targets (each chased
    /// chain hop counts once).
    pub bypass_links: u64,
}

/// One resolved data dependence of a record: a use of key `key` whose
/// reaching definition is record `def`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    /// Id of the reaching definition, with §5.2 bypass chains already
    /// chased.
    def: u32,
    /// Interned key id the value flowed through.
    key: u32,
    /// Bypass links chased to resolve the edge (0 = direct definition).
    hops: u32,
}

/// One definition of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DefSlot {
    /// Id of the defining record.
    id: u32,
    /// Where a use this definition reaches resolves to: `id` itself, or,
    /// for a bypassed restore, the definition below its save ([`NONE`] when
    /// the bypass chain falls off the start of the trace).
    resolved: u32,
    /// Bypass links chased to get from `id` to `resolved`.
    hops: u32,
}

/// The precomputed dynamic dependence graph of one `(GlobalTrace,
/// SliceOptions)` pair.
///
/// Records are u32 ids, which are also their positions in the trace; keys
/// are u32 indices into the interned key table. Per-record data lives in
/// struct-of-arrays CSR form so a slice query is pointer-chasing over flat
/// memory.
#[derive(Debug)]
pub struct DepIndex {
    /// Record id -> id of the record's dynamic control parent ([`NONE`]
    /// when absent or not in the trace).
    cd_parent: Vec<u32>,
    /// Interned key table (key id -> key).
    keys: Vec<LocKey>,
    /// Reverse interning map.
    key_ids: HashMap<LocKey, u32>,
    /// Key id -> whether the options prune the key's uses (the Fig. 9
    /// "Prune Vars" set).
    key_pruned: Vec<bool>,
    /// Key id -> the key's definitions in ascending record id.
    key_defs: Vec<Vec<DefSlot>>,
    /// CSR row offsets into `edges`, one row per record (length
    /// `records + 1`).
    edge_offsets: Vec<u32>,
    /// Every record's resolved (non-pruned) uses, row by row.
    edges: Vec<Edge>,
    /// [`SliceOptions::fingerprint`] of the options the index was built
    /// for — the cache-invalidation key.
    options_fingerprint: u64,
    /// Build statistics.
    stats: IndexBuildStats,
}

impl DepIndex {
    /// Builds the dependence index for `trace` under `options`: one forward
    /// sweep over the whole trace from an empty index, the sweep
    /// [`DepIndex::append`] continues over a suffix. The built index holds
    /// no spare capacity.
    ///
    /// `pairs` maps verified restore record ids to their save record ids
    /// (as for [`crate::slice::compute_slice_naive`]); with §5.2 pruning
    /// enabled the save/restore bypass chains are chased here, once,
    /// instead of on every traversal.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds `u32::MAX` or more records.
    pub fn build(
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        options: &SliceOptions,
    ) -> DepIndex {
        let started = Instant::now();
        let mut index = DepIndex {
            cd_parent: Vec::new(),
            keys: Vec::new(),
            key_ids: HashMap::new(),
            key_pruned: Vec::new(),
            key_defs: Vec::new(),
            edge_offsets: vec![0],
            edges: Vec::new(),
            options_fingerprint: options.fingerprint(),
            stats: IndexBuildStats::default(),
        };
        index.sweep(trace, pairs, options);
        // A built index is cached as is, many to a server shard, so the
        // growth slack of the sweep is handed back.
        index.keys.shrink_to_fit();
        index.key_ids.shrink_to_fit();
        index.key_pruned.shrink_to_fit();
        index.key_defs.shrink_to_fit();
        index.key_defs.iter_mut().for_each(Vec::shrink_to_fit);
        index.edges.shrink_to_fit();
        index.stats.wall = started.elapsed();
        index
    }

    /// Extends the index over the suffix of `trace` it does not yet cover,
    /// without recomputing the prefix — the incremental path for a
    /// recording that is still streaming in.
    ///
    /// `trace` must be a trace whose first [`DepIndex::len`] records are
    /// the ones the index covers — a fresh collection of the grown
    /// recording holds them as its prefix, since replay is deterministic —
    /// under the *same* options the index was built with, and `pairs` must
    /// cover the full trace. The sweep then picks up where it stopped, and
    /// the result is identical in every array to a batch
    /// [`DepIndex::build`] over the full trace. Only [`DepIndex::stats`]
    /// differs from the batch build (it reports the append, not a full
    /// build); [`DepIndex::same_graph`] checks exactly this equivalence.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is shorter than the index, the options
    /// fingerprint disagrees with the build, or the full trace no longer
    /// fits u32 ids.
    pub fn append(
        &mut self,
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        options: &SliceOptions,
    ) {
        let records = trace.records();
        let old_n = self.len();
        assert!(records.len() >= old_n, "trace shrank under the index");
        assert_eq!(
            options.fingerprint(),
            self.options_fingerprint,
            "append under different options than the build"
        );
        if records.len() > old_n {
            self.sweep(trace, pairs, options);
        }
    }

    /// The body shared by [`DepIndex::build`] and [`DepIndex::append`]:
    /// the forward sweep over the records the index does not yet cover.
    fn sweep(
        &mut self,
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        options: &SliceOptions,
    ) {
        let started = Instant::now();
        let records = trace.records();
        let old_n = self.len();
        let n = records.len();
        assert!(
            (n as u64) < NONE as u64,
            "trace too large for a u32-packed index"
        );
        self.cd_parent.reserve(n - old_n);
        self.edge_offsets.reserve(n - old_n);
        let mut bypass_links = 0u64;

        for (id, r) in records.iter().enumerate().skip(old_n) {
            // A control parent retires before its dependent, so a row never
            // needs a parent from a later append.
            self.cd_parent.push(
                r.cd_parent
                    .filter(|&cd| cd < n as RecordId)
                    .map_or(NONE, |cd| cd as u32),
            );

            // Uses first: each resolves against the latest definition of
            // its key, which lies strictly below `id`.
            for (k, _) in r.use_keys(false) {
                let kid = self.intern(k, options);
                if self.key_pruned[kid as usize] {
                    continue;
                }
                if let Some(&slot) = self.key_defs[kid as usize].last() {
                    if slot.resolved != NONE {
                        self.edges.push(Edge {
                            def: slot.resolved,
                            key: kid,
                            hops: slot.hops,
                        });
                    }
                }
            }
            self.edge_offsets.push(self.edges.len() as u32);

            // Then the record's own definitions. A restore of a verified
            // pair bypasses to the definition below its save, exactly as
            // the naive scan defers it: the greatest definition below
            // `save.saturating_sub(1) + 1`, whose slot is already resolved
            // (chains move strictly downward).
            let save = if options.prune_save_restore {
                pairs
                    .get(&r.id)
                    .and_then(|&save| usize::try_from(save).ok())
                    .filter(|&save| save < id)
            } else {
                None
            };
            for (k, _) in r.def_keys(false) {
                let kid = self.intern(k, options);
                let row = &mut self.key_defs[kid as usize];
                let slot = match save {
                    Some(save) if matches!(k, LocKey::Reg(..)) => {
                        bypass_links += 1;
                        let limit = save.saturating_sub(1) + 1;
                        let below = row[..row.partition_point(|d| (d.id as usize) < limit)].last();
                        DefSlot {
                            id: id as u32,
                            resolved: below.map_or(NONE, |d| d.resolved),
                            hops: 1 + below.map_or(0, |d| d.hops),
                        }
                    }
                    _ => DefSlot {
                        id: id as u32,
                        resolved: id as u32,
                        hops: 0,
                    },
                };
                row.push(slot);
            }
        }

        self.stats = IndexBuildStats {
            wall: started.elapsed(),
            keys: self.keys.len(),
            edges: self.edges.len(),
            bypass_links,
        };
    }

    /// The id of `key`, interned (with its pruning flag and an empty
    /// definition row) on first sight.
    fn intern(&mut self, key: LocKey, options: &SliceOptions) -> u32 {
        *self.key_ids.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.key_pruned.push(options.prune_keys.contains(&key));
            self.key_defs.push(Vec::new());
            (self.keys.len() - 1) as u32
        })
    }

    /// Whether two indexes hold the same dependence graph: every array and
    /// map compared, except the advisory build [`DepIndex::stats`]. This is
    /// the differential check that an [`DepIndex::append`]-grown index
    /// equals a batch [`DepIndex::build`].
    pub fn same_graph(&self, other: &DepIndex) -> bool {
        self.cd_parent == other.cd_parent
            && self.keys == other.keys
            && self.key_ids == other.key_ids
            && self.key_pruned == other.key_pruned
            && self.key_defs == other.key_defs
            && self.edge_offsets == other.edge_offsets
            && self.edges == other.edges
            && self.options_fingerprint == other.options_fingerprint
    }

    /// The reaching definition of `key` strictly below record `limit`,
    /// with bypass chains applied, as an edge — or `None` when no
    /// definition reaches.
    fn resolve(&self, key: &LocKey, limit: usize) -> Option<Edge> {
        let &kid = self.key_ids.get(key)?;
        let row = &self.key_defs[kid as usize];
        let below = row[..row.partition_point(|d| (d.id as usize) < limit)].last()?;
        (below.resolved != NONE).then_some(Edge {
            def: below.resolved,
            key: kid,
            hops: below.hops,
        })
    }

    /// The resolved data dependences of record `id`.
    fn row(&self, id: usize) -> &[Edge] {
        &self.edges[self.edge_offsets[id] as usize..self.edge_offsets[id + 1] as usize]
    }

    /// Whether the index covers the record with this id.
    pub fn contains(&self, id: RecordId) -> bool {
        id < self.len() as RecordId
    }

    /// Number of records the index covers.
    pub fn len(&self) -> usize {
        self.cd_parent.len()
    }

    /// Whether the index covers an empty trace.
    pub fn is_empty(&self) -> bool {
        self.cd_parent.is_empty()
    }

    /// The [`SliceOptions::fingerprint`] the index was built for. A query
    /// under options with a different fingerprint needs a different index.
    pub fn options_fingerprint(&self) -> u64 {
        self.options_fingerprint
    }

    /// Build statistics (wall time, sizes).
    pub fn stats(&self) -> IndexBuildStats {
        self.stats
    }

    /// Approximate resident size of the index in bytes (the arrays'
    /// capacities plus an estimate for the key map) — what the server's
    /// index cache accounts against its budget.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        let flat = held(&self.cd_parent)
            + held(&self.keys)
            + held(&self.key_pruned)
            + held(&self.key_defs)
            + self.key_defs.iter().map(held).sum::<usize>()
            + held(&self.edge_offsets)
            + held(&self.edges);
        let map = self.key_ids.capacity() * (size_of::<LocKey>() + size_of::<u32>() + 8);
        (flat + map) as u64
    }
}

/// The backward walk over the index from one criterion: the records the
/// slice reaches, found without materializing a single edge. Both
/// [`compute_slice_indexed`] and [`slice_members_indexed`] run it.
struct Walk {
    /// The criterion's record.
    crit: usize,
    /// The criterion's own dependences: its record's row, or, for a
    /// `Value` criterion, the one resolved definition of its key.
    crit_edges: Vec<Edge>,
    /// Record id -> whether the slice holds the record.
    visited: Vec<bool>,
    /// The slice's records, in visit order (the criterion first).
    order: Vec<u32>,
    /// Data edges out of the slice's records, counted during the walk.
    n_edges: usize,
}

impl Walk {
    /// Walks the slice of `criterion` over `index`.
    ///
    /// # Panics
    ///
    /// Panics if the criterion's record id is not present in the index.
    fn run(index: &DepIndex, criterion: Criterion) -> Walk {
        // The documented panic: every caller passes an id taken from the
        // trace or checked with `DepIndex::contains` first.
        let id = criterion.record_id();
        assert!(index.contains(id), "criterion record not in trace");
        let crit = id as usize;
        // An explicit criterion key overrides user pruning, so it resolves
        // through the key's definitions rather than the (pruned) row.
        let crit_edges = match criterion {
            Criterion::Record { .. } => index.row(crit).to_vec(),
            Criterion::Value { key, .. } => index.resolve(&key, crit).into_iter().collect(),
        };
        let mut visited = vec![false; index.len()];
        let mut order: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = vec![crit as u32];
        let mut n_edges = 0;
        visited[crit] = true;
        while let Some(next) = stack.pop() {
            order.push(next);
            let r = next as usize;
            let edges = if r == crit { &crit_edges } else { index.row(r) };
            n_edges += edges.len();
            let cd = index.cd_parent[r];
            let parent = (cd != NONE && (cd as usize) < r).then_some(cd);
            for p in edges.iter().map(|e| e.def).chain(parent) {
                if !visited[p as usize] {
                    visited[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        Walk {
            crit,
            crit_edges,
            visited,
            order,
            n_edges,
        }
    }

    /// The data dependences the walk follows out of record `id`.
    fn edges_of<'a>(&'a self, index: &'a DepIndex, id: usize) -> &'a [Edge] {
        if id == self.crit {
            &self.crit_edges
        } else {
            index.row(id)
        }
    }
}

/// Computes the backward dynamic slice of `criterion` as a pure BFS over
/// the precomputed dependence index.
///
/// The result is byte-identical — criterion, record set, data edges,
/// control edges, including edge order and duplicate multiplicity — to
/// [`compute_slice_naive`](crate::slice::compute_slice_naive) run with the
/// options the index was built for. The traversal statistics are a
/// deterministic function of the index and the criterion (see the module
/// docs for how they relate to the naive scan's stats).
///
/// # Panics
///
/// Panics if the criterion's record id is not present in the index; check
/// untrusted criteria with [`DepIndex::contains`] first.
pub fn compute_slice_indexed(index: &DepIndex, criterion: Criterion) -> Slice {
    // Walk first, collecting the slice's records and counting its edges,
    // so that the output is allocated once, at its final size.
    let walk = Walk::run(index, criterion);
    let mut slice = Slice {
        criterion,
        records: walk.order.iter().map(|&id| RecordId::from(id)).collect(),
        data_edges: Vec::with_capacity(walk.n_edges),
        control_edges: Vec::new(),
        stats: SliceStats::default(),
    };
    for &user in &walk.order {
        let edges = walk.edges_of(index, user as usize);
        for (i, e) in edges.iter().enumerate() {
            slice.data_edges.push(DataEdge {
                user: user.into(),
                def: e.def.into(),
                key: index.keys[e.key as usize],
            });
            if edges[..i].iter().all(|d| d.key != e.key) {
                slice.stats.bypasses += e.hops as u64;
            }
        }
        // Control edges are a pure function of the included set: emit
        // (dependent, parent) whenever both ends made it in.
        let cd = index.cd_parent[user as usize];
        if cd != NONE && walk.visited[cd as usize] {
            slice.control_edges.push((user.into(), cd.into()));
        }
    }
    slice.control_edges.sort_unstable();
    slice
        .data_edges
        .sort_unstable_by_key(|e| (e.user, e.def, e.key));

    // Deterministic advisory stats: the BFS touches exactly the slice
    // members, so scanned = |slice| - 1.
    slice.stats.records_scanned = (walk.order.len() - 1) as u64;
    slice
}

/// The records of the slice of `criterion`, as a dense bitmap over record
/// ids (`true` at every slice member) — the walk of
/// [`compute_slice_indexed`] with nothing materialized: no id set, no
/// edges, no sorts. This is all a relog needs of the slice
/// ([`emit_slice_pinball`](crate::regions::emit_slice_pinball)), and it
/// holds exactly the records of `compute_slice_indexed(index, criterion)`.
///
/// # Panics
///
/// As [`compute_slice_indexed`].
pub fn slice_members_indexed(index: &DepIndex, criterion: Criterion) -> Vec<bool> {
    Walk::run(index, criterion).visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{Instr, Loc, Reg, Tid};

    use crate::trace::TraceRecord;

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

    /// Two threads; every record defines one of a few memory words or a
    /// register, and some use one.
    fn trace_records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let word = Loc::Mem(0x1000 + (i % 3) as u64 * 8);
                let def = if i % 4 == 3 {
                    (Loc::Reg(Reg(1)), i as i64)
                } else {
                    (word, i as i64)
                };
                let uses = if i % 5 == 0 { vec![(word, 0)] } else { vec![] };
                rec(i as RecordId, (i / 7 % 2) as Tid, &uses, &[def])
            })
            .collect()
    }

    #[test]
    fn ids_at_or_past_the_end_are_not_covered() {
        let records = trace_records(40);
        let pairs = HashMap::new();
        let opts = SliceOptions::new();
        let prefix = GlobalTrace::build(records[..25].to_vec());
        let mut index = DepIndex::build(&prefix, &pairs, &opts);
        for id in [25, u64::MAX] {
            assert!(!index.contains(id), "id {id} before append");
        }
        index.append(&GlobalTrace::build(records.clone()), &pairs, &opts);
        for id in [40, u64::MAX] {
            assert!(!index.contains(id), "id {id} after append");
        }
        for r in &records {
            assert!(index.contains(r.id));
        }
    }

    /// A `Value` criterion resolves its key's greatest definition below the
    /// criterion, pruned or not.
    #[test]
    fn value_criterion_resolves_the_greatest_earlier_definition() {
        let records = trace_records(60);
        let keys = [
            LocKey::Mem(0x1000),
            LocKey::Mem(0x1008),
            LocKey::Mem(0x1010),
            LocKey::Reg(0, Reg(1)),
            LocKey::Reg(1, Reg(1)),
            LocKey::Mem(0x9999),
        ];
        let trace = GlobalTrace::build(records);
        for opts in [
            SliceOptions::new(),
            SliceOptions::new().prune_key(LocKey::Mem(0x1000)),
        ] {
            let index = DepIndex::build(&trace, &HashMap::new(), &opts);
            for r in trace.records() {
                for key in keys {
                    let expected = trace.records()[..r.id as usize]
                        .iter()
                        .rev()
                        .find(|d| d.def_keys(false).any(|(k, _)| k == key))
                        .map(|d| d.id);
                    let slice = compute_slice_indexed(&index, Criterion::Value { id: r.id, key });
                    let resolved: Vec<RecordId> = slice
                        .data_edges
                        .iter()
                        .filter(|e| e.user == r.id && e.key == key)
                        .map(|e| e.def)
                        .collect();
                    assert_eq!(
                        resolved,
                        expected.into_iter().collect::<Vec<_>>(),
                        "{key} at record {}",
                        r.id
                    );
                }
            }
        }
    }

    #[test]
    fn a_built_index_holds_no_spare_capacity() {
        let trace = GlobalTrace::build(trace_records(300));
        let index = DepIndex::build(&trace, &HashMap::new(), &SliceOptions::new());
        assert!(!index.edges.is_empty());
        assert_eq!(index.edges.capacity(), index.edges.len());
        assert_eq!(index.key_defs.capacity(), index.key_defs.len());
        for row in &index.key_defs {
            assert_eq!(row.capacity(), row.len());
        }
        assert_eq!(index.cd_parent.capacity(), trace.records().len());
        assert_eq!(index.edge_offsets.capacity(), trace.records().len() + 1);
    }
}
