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
//! the CSR arrays — no `HashMap` probes, no live-set bookkeeping, no block
//! rescan — and produces slices byte-identical (criterion, records, data
//! edges, control edges) to the LP scan, [`compute_slice_lp`].
//!
//! The index pays for itself only when a trace is sliced more than once:
//! on the 112k-record churn trace, building it costs about as much as
//! seventeen one-shot LP slices, and each query after that is about a
//! thousand times faster than LP. A one-shot slice therefore stays on LP.
//!
//! One body builds the index: [`DepIndex::build`] grows an empty index over
//! the whole trace, and [`DepIndex::append`] grows it over a streamed
//! suffix. The edge fill runs in parallel over disjoint record ranges with
//! the same atomic-work-queue + deterministic in-order merge used by the LP
//! block summaries in [`crate::global`], so its contents are byte-for-byte
//! independent of the worker count.
//!
//! Traversal statistics on an indexed slice are a deterministic function of
//! the index and the criterion, but they are *advisory* relative to the
//! scanning traversals: the BFS touches only slice members, so
//! `records_scanned` equals the slice size minus the criterion, and
//! `bypasses` counts the bypass links baked into the edges the query
//! actually crossed.
//!
//! [`compute_slice_lp`]: crate::slice::compute_slice_lp

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::global::GlobalTrace;
use crate::slice::{Criterion, DataEdge, Slice, SliceOptions, SliceStats};
use crate::trace::{LocKey, RecordId};

/// Sentinel for "no position" in the u32-packed arrays.
const NONE: u32 = u32::MAX;

/// Traces below this many records are indexed serially — thread spawn
/// overhead dominates for small traces (mirrors the summarize stage).
const PAR_INDEX_THRESHOLD: usize = 16_384;

/// Upper bound on index-build workers.
const MAX_INDEX_WORKERS: usize = 16;

/// Records per work unit claimed from the shared queue during the parallel
/// edge fill.
const INDEX_SHARD: usize = 1024;

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
    /// Workers used for the parallel edge fill (1 = serial).
    pub workers: usize,
}

/// The precomputed dynamic dependence graph of one `(GlobalTrace,
/// SliceOptions)` pair.
///
/// Positions are u32 indices into the global trace order; keys are u32
/// indices into the interned key table. All per-record data lives in
/// struct-of-arrays CSR form so a slice query is pointer-chasing over flat
/// memory.
#[derive(Debug)]
pub struct DepIndex {
    /// Position -> record id, in global trace order.
    record_ids: Vec<RecordId>,
    /// Record id -> position (the query-time criterion lookup).
    pos_of: HashMap<RecordId, u32>,
    /// Position -> position of the record's dynamic control parent
    /// ([`NONE`] when absent or not in the trace).
    cd_parent_pos: Vec<u32>,
    /// Interned key table (key id -> key).
    keys: Vec<LocKey>,
    /// Reverse interning map, used by `Criterion::Value` resolution.
    key_ids: HashMap<LocKey, u32>,
    /// CSR row offsets into `edges`/`edge_keys`/`edge_hops`, one row per
    /// record position (length `records + 1`).
    edge_offsets: Vec<u32>,
    /// Resolved reaching-definition *position* of each (non-pruned) use,
    /// with §5.2 bypass chains already chased.
    edges: Vec<u32>,
    /// Interned key id each edge flowed through.
    edge_keys: Vec<u32>,
    /// Bypass links chased to resolve each edge (0 = direct definition).
    edge_hops: Vec<u32>,
    /// Per-key definition CSR: row offsets into `key_defs`.
    key_def_offsets: Vec<u32>,
    /// Ascending definition positions, grouped by key id.
    key_defs: Vec<u32>,
    /// Bypass-resolved target of each definition slot ([`NONE`] when the
    /// bypass chain falls off the start of the trace).
    key_resolved: Vec<u32>,
    /// Bypass links chased for each definition slot.
    key_hops: Vec<u32>,
    /// LP block size of the source trace (kept for stats parity).
    block_size: usize,
    /// [`SliceOptions::fingerprint`] of the options the index was built
    /// for — the cache-invalidation key.
    options_fingerprint: u64,
    /// Build statistics.
    stats: IndexBuildStats,
}

impl DepIndex {
    /// Builds the dependence index for `trace` under `options`: an empty
    /// index grown over the whole trace by the body [`DepIndex::append`]
    /// runs on a suffix.
    ///
    /// `pairs` maps verified restore record ids to their save record ids
    /// (as for [`crate::slice::compute_slice_lp`]); with §5.2 pruning
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
        let mut index = DepIndex {
            record_ids: Vec::new(),
            pos_of: HashMap::new(),
            cd_parent_pos: Vec::new(),
            keys: Vec::new(),
            key_ids: HashMap::new(),
            edge_offsets: vec![0],
            edges: Vec::new(),
            edge_keys: Vec::new(),
            edge_hops: Vec::new(),
            key_def_offsets: vec![0],
            key_defs: Vec::new(),
            key_resolved: Vec::new(),
            key_hops: Vec::new(),
            block_size: trace.block_size(),
            options_fingerprint: options.fingerprint(),
            stats: IndexBuildStats::default(),
        };
        index.extend_over(trace, pairs, options);
        index
    }

    /// Extends the index over the suffix of `trace` it does not yet cover,
    /// without recomputing the prefix — the incremental path for a
    /// recording that is still streaming in.
    ///
    /// `trace` must be the old trace grown in place by
    /// [`GlobalTrace::extend`] (prefix positions unchanged — built with
    /// clustering off), under the *same* options the index was built with,
    /// and `pairs` must cover the full trace. The result is then identical
    /// in every array to a batch [`DepIndex::build`] over the full trace:
    /// key interning is in trace order, so the prefix of the key table is
    /// unchanged; a definition's bypass resolution chases strictly earlier
    /// definitions, so prefix slots resolve identically; and a use at
    /// position `p` depends only on definitions below `p`, so prefix edge
    /// rows are already correct and only suffix rows are filled. The
    /// per-key definition CSR is re-laid-out (rows must stay contiguous),
    /// but old rows are copied rather than re-resolved — the append pays
    /// O(copy + suffix), never the full build's resolution cost. Only
    /// [`DepIndex::stats`] differs from the batch build (it reports the
    /// append, not a full build); [`DepIndex::same_graph`] checks exactly
    /// this equivalence.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is shorter than the index, its block size or the
    /// options fingerprint disagree with the build, or the full trace no
    /// longer fits u32 positions.
    pub fn append(
        &mut self,
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        options: &SliceOptions,
    ) {
        let records = trace.records();
        let old_n = self.record_ids.len();
        assert!(records.len() >= old_n, "trace shrank under the index");
        assert_eq!(
            options.fingerprint(),
            self.options_fingerprint,
            "append under different options than the build"
        );
        assert_eq!(
            trace.block_size(),
            self.block_size,
            "append under a different block size than the build"
        );
        debug_assert!(
            records[..old_n]
                .iter()
                .zip(&self.record_ids)
                .all(|(r, &id)| r.id == id),
            "trace prefix changed under the index"
        );
        if records.len() > old_n {
            self.extend_over(trace, pairs, options);
        }
    }

    /// The body shared by [`DepIndex::build`] and [`DepIndex::append`]:
    /// interns the suffix's keys, lays out the per-key definition CSR with
    /// §5.2 bypass chains resolved, and fills the suffix's edge rows.
    fn extend_over(
        &mut self,
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        options: &SliceOptions,
    ) {
        let started = Instant::now();
        let records = trace.records();
        let old_n = self.record_ids.len();
        let n = records.len();
        assert!(
            (n as u64) < NONE as u64,
            "trace too large for a u32-packed index"
        );
        let track_sp = trace.track_sp();

        // Suffix interning: prefix records are unchanged, so their
        // encounter order — and therefore the prefix of the key table —
        // is exactly the batch build's.
        self.record_ids.reserve(n - old_n);
        self.pos_of.reserve(n - old_n);
        self.cd_parent_pos.reserve(n - old_n);
        for (pos, r) in records[old_n..].iter().enumerate() {
            let pos = old_n + pos;
            self.record_ids.push(r.id);
            self.pos_of.insert(r.id, pos as u32);
            for (k, _) in r.def_keys(track_sp).chain(r.use_keys(track_sp)) {
                self.key_ids.entry(k).or_insert_with(|| {
                    self.keys.push(k);
                    (self.keys.len() - 1) as u32
                });
            }
        }
        // A control parent always precedes its dependent in the unclustered
        // order, so prefix rows cannot gain a parent from the suffix.
        for r in &records[old_n..] {
            let cd = r
                .cd_parent
                .and_then(|cd| trace.position(cd))
                .map_or(NONE, |p| p as u32);
            self.cd_parent_pos.push(cd);
        }

        // Lay out the per-key definition CSR. Per-key rows must stay
        // contiguous as definitions land in old keys' rows, so the flat
        // arrays are rebuilt — but prefix slots are identical to the batch
        // build's (bypass chains only chase earlier definitions), so old
        // rows are copied verbatim and only definitions landing in the
        // suffix pay resolution. This keeps an append's CSR cost at
        // O(copy + suffix), not O(re-resolving every definition): on a
        // long stream the copy is a few memmoves while re-resolution
        // would approach the full-build cost it exists to avoid. Chains
        // move strictly downward, so resolving each key's slots in
        // ascending order sees every chain target already resolved.
        let old_keys = self.key_def_offsets.len() - 1;
        let mut key_def_offsets: Vec<u32> = Vec::with_capacity(self.keys.len() + 1);
        let mut key_defs: Vec<u32> = Vec::with_capacity(self.key_defs.len());
        let mut key_resolved: Vec<u32> = Vec::with_capacity(self.key_resolved.len());
        let mut key_hops: Vec<u32> = Vec::with_capacity(self.key_hops.len());
        let mut bypass_links: u64 = 0;
        key_def_offsets.push(0);
        for (kid, &key) in self.keys.iter().enumerate() {
            let defs = trace.def_positions(&key);
            let base = key_defs.len();
            let copied = if kid < old_keys {
                let row =
                    self.key_def_offsets[kid] as usize..self.key_def_offsets[kid + 1] as usize;
                key_defs.extend_from_slice(&self.key_defs[row.clone()]);
                key_resolved.extend_from_slice(&self.key_resolved[row.clone()]);
                key_hops.extend_from_slice(&self.key_hops[row]);
                key_defs.len() - base
            } else {
                0
            };
            debug_assert_eq!(
                copied,
                defs.partition_point(|&p| p < old_n),
                "old CSR row length disagrees with the prefix's definitions"
            );
            for (i, &p) in defs.iter().enumerate().skip(copied) {
                let r = &records[p];
                let bypass_to = if options.prune_save_restore && matches!(key, LocKey::Reg(..)) {
                    pairs
                        .get(&r.id)
                        .and_then(|&save| trace.position(save))
                        .filter(|&sp| sp < p)
                } else {
                    None
                };
                key_defs.push(p as u32);
                match bypass_to {
                    Some(save_pos) => {
                        // The query resumes strictly below the save, exactly
                        // as the LP scan defers it: the next candidate is
                        // the greatest definition below
                        // `save_pos.saturating_sub(1) + 1`.
                        let limit = save_pos.saturating_sub(1) + 1;
                        let j = defs[..i].partition_point(|&q| q < limit);
                        if j == 0 {
                            key_resolved.push(NONE);
                            key_hops.push(1);
                        } else {
                            key_resolved.push(key_resolved[base + j - 1]);
                            key_hops.push(1 + key_hops[base + j - 1]);
                        }
                        bypass_links += 1;
                    }
                    None => {
                        key_resolved.push(p as u32);
                        key_hops.push(0);
                    }
                }
            }
            key_def_offsets.push(key_defs.len() as u32);
        }
        self.key_def_offsets = key_def_offsets;
        self.key_defs = key_defs;
        self.key_resolved = key_resolved;
        self.key_hops = key_hops;

        // Edge fill over the suffix: workers claim record shards from a
        // shared atomic counter and resolve every non-pruned use against
        // the per-key CSR; shard results merge in shard order, so the
        // arrays are identical for every worker count. A use at position
        // `p` resolves against definitions strictly below `p` only, so
        // prefix rows are already exactly what a batch build would
        // produce.
        let suffix = n - old_n;
        let workers = if suffix >= PAR_INDEX_THRESHOLD {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .clamp(1, MAX_INDEX_WORKERS)
        } else {
            1
        };
        let n_shards = suffix.div_ceil(INDEX_SHARD).max(1);
        // One shard's result: per-record row lengths + flat (def, key, hops).
        type ShardEdges = (Vec<u32>, Vec<(u32, u32, u32)>);
        let index = &*self;
        let fill_shard = |shard: usize| -> ShardEdges {
            let start = old_n + shard * INDEX_SHARD;
            let end = (start + INDEX_SHARD).min(n);
            let mut rows: Vec<u32> = Vec::with_capacity(end - start);
            let mut flat: Vec<(u32, u32, u32)> = Vec::new();
            for (pos, r) in records[start..end].iter().enumerate() {
                let pos = start + pos;
                let before = flat.len();
                for (k, _) in r.use_keys(track_sp) {
                    if options.prune_keys.contains(&k) {
                        continue;
                    }
                    if let Some((def, hops)) = index.resolve_interned(&k, pos) {
                        flat.push((def, index.key_ids[&k], hops));
                    }
                }
                rows.push((flat.len() - before) as u32);
            }
            (rows, flat)
        };

        let mut per_shard: Vec<Option<ShardEdges>> = (0..n_shards).map(|_| None).collect();
        if workers <= 1 {
            for (s, slot) in per_shard.iter_mut().enumerate() {
                *slot = Some(fill_shard(s));
            }
        } else {
            let next = AtomicUsize::new(0);
            let partials = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let shard = next.fetch_add(1, Ordering::Relaxed);
                                if shard >= n_shards {
                                    break;
                                }
                                mine.push((shard, fill_shard(shard)));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("index worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (s, result) in partials {
                per_shard[s] = Some(result);
            }
        }

        self.edge_offsets.reserve(suffix);
        for slot in per_shard {
            let (rows, flat) = slot.expect("every shard filled");
            for len in rows {
                let last = self.edge_offsets.last().copied().unwrap_or(0);
                self.edge_offsets.push(last + len);
            }
            for (def, kid, hops) in flat {
                self.edges.push(def);
                self.edge_keys.push(kid);
                self.edge_hops.push(hops);
            }
        }
        debug_assert_eq!(self.edge_offsets.len(), n + 1);
        debug_assert_eq!(
            *self.edge_offsets.last().unwrap() as usize,
            self.edges.len()
        );

        self.stats = IndexBuildStats {
            wall: started.elapsed(),
            keys: self.keys.len(),
            edges: self.edges.len(),
            bypass_links,
            workers,
        };
    }

    /// Whether two indexes hold the same dependence graph: every array and
    /// map compared, except the advisory build [`DepIndex::stats`]. This is
    /// the differential check that an [`DepIndex::append`]-grown index
    /// equals a batch [`DepIndex::build`].
    pub fn same_graph(&self, other: &DepIndex) -> bool {
        self.record_ids == other.record_ids
            && self.pos_of == other.pos_of
            && self.cd_parent_pos == other.cd_parent_pos
            && self.keys == other.keys
            && self.key_ids == other.key_ids
            && self.edge_offsets == other.edge_offsets
            && self.edges == other.edges
            && self.edge_keys == other.edge_keys
            && self.edge_hops == other.edge_hops
            && self.key_def_offsets == other.key_def_offsets
            && self.key_defs == other.key_defs
            && self.key_resolved == other.key_resolved
            && self.key_hops == other.key_hops
            && self.block_size == other.block_size
            && self.options_fingerprint == other.options_fingerprint
    }

    /// Resolves the reaching definition of `key` strictly below `limit`,
    /// with bypass chains applied: the (position, bypass hops) pair, or
    /// `None` when no definition reaches.
    fn resolve_interned(&self, key: &LocKey, limit: usize) -> Option<(u32, u32)> {
        let &kid = self.key_ids.get(key)?;
        self.resolve_key_id(kid, limit)
    }

    /// [`Self::resolve_interned`] by interned key id.
    fn resolve_key_id(&self, kid: u32, limit: usize) -> Option<(u32, u32)> {
        let lo = self.key_def_offsets[kid as usize] as usize;
        let hi = self.key_def_offsets[kid as usize + 1] as usize;
        let defs = &self.key_defs[lo..hi];
        let i = defs.partition_point(|&p| (p as usize) < limit);
        if i == 0 {
            return None;
        }
        let resolved = self.key_resolved[lo + i - 1];
        if resolved == NONE {
            return None;
        }
        Some((resolved, self.key_hops[lo + i - 1]))
    }

    /// Position of a record id in the indexed trace order, or `None` when
    /// the index does not cover the record.
    pub fn position(&self, id: RecordId) -> Option<usize> {
        self.pos_of.get(&id).map(|&p| p as usize)
    }

    /// Number of records the index covers.
    pub fn len(&self) -> usize {
        self.record_ids.len()
    }

    /// Whether the index covers an empty trace.
    pub fn is_empty(&self) -> bool {
        self.record_ids.is_empty()
    }

    /// The [`SliceOptions::fingerprint`] the index was built for. A query
    /// under options with a different fingerprint needs a different index.
    pub fn options_fingerprint(&self) -> u64 {
        self.options_fingerprint
    }

    /// Build statistics (wall time, sizes, workers).
    pub fn stats(&self) -> IndexBuildStats {
        self.stats
    }

    /// Approximate resident size of the index in bytes (flat arrays plus
    /// an estimate for the two hash maps) — what the server's index cache
    /// accounts against its budget.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let flat = self.record_ids.len() * size_of::<RecordId>()
            + self.cd_parent_pos.len() * size_of::<u32>()
            + self.keys.len() * size_of::<LocKey>()
            + self.edge_offsets.len() * size_of::<u32>()
            + self.edges.len() * size_of::<u32>()
            + self.edge_keys.len() * size_of::<u32>()
            + self.edge_hops.len() * size_of::<u32>()
            + self.key_def_offsets.len() * size_of::<u32>()
            + self.key_defs.len() * size_of::<u32>()
            + self.key_resolved.len() * size_of::<u32>()
            + self.key_hops.len() * size_of::<u32>();
        let maps = self.pos_of.len() * (size_of::<RecordId>() + size_of::<u32>() + 8)
            + self.key_ids.len() * (size_of::<LocKey>() + size_of::<u32>() + 8);
        (flat + maps) as u64
    }
}

/// Computes the backward dynamic slice of `criterion` as a pure BFS over
/// the precomputed dependence index.
///
/// The result is byte-identical — criterion, record set, data edges,
/// control edges, including edge order and duplicate multiplicity — to
/// [`compute_slice_lp`](crate::slice::compute_slice_lp) run with the
/// options the index was built for. The traversal statistics are a
/// deterministic function of the index and the criterion (see the module
/// docs for how they relate to the scanning traversals' stats).
///
/// # Panics
///
/// Panics if the criterion's record id is not present in the index; check
/// untrusted criteria with [`DepIndex::position`] first.
pub fn compute_slice_indexed(index: &DepIndex, criterion: Criterion) -> Slice {
    let crit_pos = index
        .position(criterion.record_id())
        .expect("criterion record not in trace");

    let mut slice = Slice {
        criterion,
        records: HashSet::new(),
        data_edges: Vec::new(),
        control_edges: Vec::new(),
        stats: SliceStats::default(),
    };

    let mut visited = vec![false; index.len()];
    let mut order: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();

    visited[crit_pos] = true;
    order.push(crit_pos as u32);
    slice.records.insert(index.record_ids[crit_pos]);

    let push = |p: u32, visited: &mut Vec<bool>, stack: &mut Vec<u32>| {
        if !visited[p as usize] {
            visited[p as usize] = true;
            stack.push(p);
        }
    };

    // Seed with the criterion record's dependences.
    match criterion {
        Criterion::Record { .. } => {
            let lo = index.edge_offsets[crit_pos] as usize;
            let hi = index.edge_offsets[crit_pos + 1] as usize;
            for e in lo..hi {
                let def = index.edges[e];
                slice.data_edges.push(DataEdge {
                    user: index.record_ids[crit_pos],
                    def: index.record_ids[def as usize],
                    key: index.keys[index.edge_keys[e] as usize],
                });
                slice.stats.bypasses += index.edge_hops[e] as u64;
                push(def, &mut visited, &mut stack);
            }
        }
        Criterion::Value { key, .. } => {
            // An explicit criterion key overrides user pruning, so resolve
            // through the per-key CSR rather than the (pruned) record row.
            if let Some((def, hops)) = index.resolve_interned(&key, crit_pos) {
                slice.data_edges.push(DataEdge {
                    user: index.record_ids[crit_pos],
                    def: index.record_ids[def as usize],
                    key,
                });
                slice.stats.bypasses += hops as u64;
                push(def, &mut visited, &mut stack);
            }
        }
    }
    let cd = index.cd_parent_pos[crit_pos];
    if cd != NONE && (cd as usize) < crit_pos {
        push(cd, &mut visited, &mut stack);
    }

    while let Some(pos) = stack.pop() {
        let pos = pos as usize;
        order.push(pos as u32);
        slice.records.insert(index.record_ids[pos]);
        let lo = index.edge_offsets[pos] as usize;
        let hi = index.edge_offsets[pos + 1] as usize;
        for e in lo..hi {
            let def = index.edges[e];
            slice.data_edges.push(DataEdge {
                user: index.record_ids[pos],
                def: index.record_ids[def as usize],
                key: index.keys[index.edge_keys[e] as usize],
            });
            slice.stats.bypasses += index.edge_hops[e] as u64;
            push(def, &mut visited, &mut stack);
        }
        let cd = index.cd_parent_pos[pos];
        if cd != NONE && (cd as usize) < pos {
            push(cd, &mut visited, &mut stack);
        }
    }

    // Control edges are a pure function of the included set: emit
    // (dependent, parent) whenever both ends made it in.
    for &pos in &order {
        let cd = index.cd_parent_pos[pos as usize];
        if cd != NONE && visited[cd as usize] {
            slice.control_edges.push((
                index.record_ids[pos as usize],
                index.record_ids[cd as usize],
            ));
        }
    }
    slice.control_edges.sort_unstable();
    slice
        .data_edges
        .sort_unstable_by_key(|e| (e.user, e.def, e.key));

    // Deterministic advisory stats: the BFS touches exactly the slice
    // members, so scanned = |slice| - 1; every block at or below the
    // criterion's that holds no slice member counts as skipped.
    slice.stats.records_scanned = (order.len() - 1) as u64;
    let blocks: HashSet<usize> = order
        .iter()
        .skip(1)
        .map(|&p| p as usize / index.block_size)
        .collect();
    slice.stats.blocks_visited = blocks.len();
    slice.stats.blocks_skipped = (crit_pos / index.block_size + 1) - blocks.len();
    slice
}
