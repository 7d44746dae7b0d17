//! Backward dynamic slicing over the global trace (paper §3, step iii).
//!
//! "A backward traversal of the global trace is carried out to recover the
//! dynamic dependences that form the dynamic slice." The paper speeds this
//! scan up with Zhang et al.'s Limited Preprocessing (LP), which skips
//! trace blocks whose definition summary holds nothing live. In the
//! replay's retire order every block holds every thread's records, so LP
//! skipped none; this reproduction instead answers every slice through
//! the full-preprocessing dependence index of the same paper
//! ([`DepIndex`](crate::DepIndex)), which one collected trace builds once
//! for all its slices. This module holds the slice types and
//! [`compute_slice_naive`], the index's oracle.
//!
//! The naive scan keeps a *live set*: locations whose reaching definition
//! is still being sought, each with the records waiting on it (so the
//! dependence graph gets per-user edges). Scanning backward, a record that
//! defines a live location is added to the slice, its own uses become
//! live, and its dynamic control parent becomes *needed*.
//!
//! Save/restore pruning (paper §5.2) hooks in here: when the reaching
//! definition of a live register turns out to be the *restore* half of a
//! verified save/restore pair, the traversal does not include it; instead
//! the query is *deferred* until the scan passes the matching save, where
//! the register's pre-save definition resolves it — bypassing the chain
//! `use → restore → save → def` to `use → def` and keeping the pair's
//! control context out of the slice.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use minivm::{Pc, Tid};

use crate::global::GlobalTrace;
use crate::trace::{LocKey, RecordId};

/// What to slice on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Criterion {
    /// Slice for everything the given record used — "the computation of the
    /// value at this statement instance" (the usual choice: the failure
    /// point).
    Record {
        /// The statement instance to slice at.
        id: RecordId,
    },
    /// Slice for one specific location's value as observed at the record
    /// (the GUI's "slice for variable v at statement s").
    Value {
        /// The statement instance to slice at.
        id: RecordId,
        /// The location whose value is being explained.
        key: LocKey,
    },
}

impl Criterion {
    /// The anchoring record id.
    pub fn record_id(&self) -> RecordId {
        match *self {
            Criterion::Record { id } | Criterion::Value { id, .. } => id,
        }
    }
}

/// A data-dependence edge in the slice: `user` read `key`, whose reaching
/// definition is `def`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataEdge {
    /// The reading record.
    pub user: RecordId,
    /// The defining record.
    pub def: RecordId,
    /// The location the value flowed through.
    pub key: LocKey,
}

/// Statistics from one slicing traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceStats {
    /// Records examined.
    pub records_scanned: u64,
    /// Save/restore bypasses applied.
    pub bypasses: u64,
}

/// A computed dynamic slice: the included statement instances plus the
/// dynamic dependence graph connecting them.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The criterion the slice was computed for.
    pub criterion: Criterion,
    /// Included record ids.
    pub records: HashSet<RecordId>,
    /// Data-dependence edges (user → def).
    pub data_edges: Vec<DataEdge>,
    /// Control-dependence edges (dependent → branch).
    pub control_edges: Vec<(RecordId, RecordId)>,
    /// Traversal statistics.
    pub stats: SliceStats,
}

impl Slice {
    /// Number of statement instances in the slice.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the slice is empty (it never is: the criterion is included).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The slice as a dense bitmap over the record ids `0..len` of its
    /// trace: `true` at every included record. Ids at or past `len` are
    /// left out.
    pub fn members(&self, len: usize) -> Vec<bool> {
        let mut members = vec![false; len];
        for &id in &self.records {
            if let Some(m) = usize::try_from(id).ok().and_then(|i| members.get_mut(i)) {
                *m = true;
            }
        }
        members
    }

    /// Whether the slice contains the dynamic instance `(tid, pc, instance)`.
    pub fn contains_instance(&self, trace: &GlobalTrace, tid: Tid, pc: Pc, instance: u64) -> bool {
        self.records.iter().any(|&id| {
            trace
                .record(id)
                .is_some_and(|r| r.tid == tid && r.pc == pc && r.instance == instance)
        })
    }

    /// The distinct program points (pcs) in the slice, sorted ascending —
    /// what the GUI highlights in yellow. Returned as a deduplicated `Vec`
    /// so the CLI render path can binary-search or iterate without
    /// rebuilding a hash set per frame.
    pub fn pcs(&self, trace: &GlobalTrace) -> Vec<Pc> {
        let mut pcs: Vec<Pc> = self
            .records
            .iter()
            .filter_map(|&id| trace.record(id).map(|r| r.pc))
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        pcs
    }

    /// The distinct source lines in the slice, sorted ascending.
    pub fn lines(&self, trace: &GlobalTrace) -> Vec<u32> {
        let mut lines: Vec<u32> = self
            .records
            .iter()
            .filter_map(|&id| trace.record(id).map(|r| r.line))
            .filter(|&l| l != 0)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

/// Options controlling a slicing traversal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceOptions {
    /// Apply save/restore bypass pruning (§5.2). On by default.
    pub prune_save_restore: bool,
    /// Locations whose dependences are *not* chased — the KDbg dialog's
    /// "Prune Vars" field (paper Fig. 9). A use of a pruned location never
    /// enters the live set, cutting that variable's entire backward cone
    /// out of the slice. Useful for suppressing well-understood inputs
    /// (configuration reads, loop counters) while investigating.
    pub prune_keys: std::collections::HashSet<LocKey>,
}

impl Default for SliceOptions {
    fn default() -> SliceOptions {
        SliceOptions::new()
    }
}

impl SliceOptions {
    /// The default traversal: §5.2 pruning on, no user-pruned variables.
    pub fn new() -> SliceOptions {
        SliceOptions {
            prune_save_restore: true,
            prune_keys: std::collections::HashSet::new(),
        }
    }

    /// Adds a user-pruned location (builder-style).
    pub fn prune_key(mut self, key: LocKey) -> SliceOptions {
        self.prune_keys.insert(key);
        self
    }

    /// A stable fingerprint of the options, for content-addressed caching
    /// of slice results: two option sets fingerprint equally exactly when
    /// they request the same traversal *output*. The prune set is hashed in
    /// sorted order (its in-memory iteration order is not deterministic).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(&[self.prune_save_restore as u8]);
        let mut keys: Vec<LocKey> = self.prune_keys.iter().copied().collect();
        keys.sort_unstable();
        for key in keys {
            match key {
                LocKey::Reg(tid, reg) => {
                    mix(b"r");
                    mix(&tid.to_le_bytes());
                    mix(&reg.0.to_le_bytes());
                }
                LocKey::Mem(addr) => {
                    mix(b"m");
                    mix(&addr.to_le_bytes());
                }
            }
        }
        h
    }
}

/// One entry of the live set: records waiting for the reaching definition
/// of a key.
type LiveSet = HashMap<LocKey, Vec<RecordId>>;

/// The criterion record's position in a trace of `len` records: its id.
///
/// # Panics
///
/// Panics if the trace holds no record with the criterion's id.
fn criterion_position(len: usize, criterion: Criterion) -> usize {
    usize::try_from(criterion.record_id())
        .ok()
        .filter(|&id| id < len)
        .expect("criterion record not in trace")
}

/// Computes the slice with a naive full backward scan — an independent
/// implementation, used as the oracle in the differential tests (indexed
/// ≡ naive), by drbench's answer checks and by the ablation benchmark.
///
/// `pairs` maps verified restore record ids to their save record ids (from
/// [`PairDetector`](crate::pairs::PairDetector)); pass an empty map to
/// disable pruning regardless of `options`.
///
/// # Panics
///
/// Panics if the criterion's record id is not present in the trace.
pub fn compute_slice_naive(
    trace: &GlobalTrace,
    criterion: Criterion,
    pairs: &HashMap<RecordId, RecordId>,
    options: SliceOptions,
) -> Slice {
    let records = trace.records();
    let crit_pos = criterion_position(records.len(), criterion);

    let mut slice = Slice {
        criterion,
        records: HashSet::new(),
        data_edges: Vec::new(),
        control_edges: Vec::new(),
        stats: SliceStats::default(),
    };
    let mut live: LiveSet = HashMap::new();
    let mut needed: HashSet<usize> = HashSet::new();
    // (activation position, key, users)
    let mut deferred: Vec<(usize, LocKey, Vec<RecordId>)> = Vec::new();

    let crit = &records[crit_pos];
    slice.records.insert(crit.id);
    match criterion {
        Criterion::Record { .. } => {
            for (k, _) in crit.use_keys(false) {
                if !options.prune_keys.contains(&k) {
                    live.entry(k).or_default().push(crit.id);
                }
            }
        }
        Criterion::Value { key, .. } => {
            live.entry(key).or_default().push(crit.id);
        }
    }
    if let Some(cd) = crit.cd_parent {
        if cd as usize <= crit_pos {
            needed.insert(cd as usize);
        }
    }

    let mut pos = crit_pos;
    while pos > 0 {
        pos -= 1;
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].0 >= pos {
                let (_, key, users) = deferred.swap_remove(i);
                live.entry(key).or_default().extend(users);
            } else {
                i += 1;
            }
        }
        let r = &records[pos];
        slice.stats.records_scanned += 1;
        let mut admit_r = false;
        if needed.remove(&pos) {
            admit_r = true;
        }
        for (k, _) in r.def_keys(false) {
            let Some(users) = live.remove(&k) else {
                continue;
            };
            let bypass = options.prune_save_restore
                && matches!(k, LocKey::Reg(..))
                && pairs.get(&r.id).is_some_and(|&sp| (sp as usize) < pos);
            if bypass {
                slice.stats.bypasses += 1;
                let save_pos = pairs[&r.id] as usize;
                deferred.push((save_pos.saturating_sub(1), k, users));
            } else {
                for &u in &users {
                    slice.data_edges.push(DataEdge {
                        user: u,
                        def: r.id,
                        key: k,
                    });
                }
                admit_r = true;
            }
        }
        if admit_r && slice.records.insert(r.id) {
            for (k, _) in r.use_keys(false) {
                if options.prune_keys.contains(&k) {
                    continue;
                }
                live.entry(k).or_default().push(r.id);
            }
            if let Some(cd) = r.cd_parent {
                if (cd as usize) < pos && !slice.records.contains(&cd) {
                    needed.insert(cd as usize);
                }
            }
        }
    }

    for &id in &slice.records {
        if let Some(r) = trace.record(id) {
            if let Some(cd) = r.cd_parent {
                if slice.records.contains(&cd) {
                    slice.control_edges.push((id, cd));
                }
            }
        }
    }
    slice.control_edges.sort_unstable();
    slice
        .data_edges
        .sort_unstable_by_key(|e| (e.user, e.def, e.key));
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, Executor, LiveEnv, Reg};
    use repro_cfg::Cfg;

    use crate::control::ControlTracker;
    use crate::global::GlobalTrace;
    use crate::index::{compute_slice_indexed, DepIndex};
    use crate::pairs::{PairCandidates, PairDetector};
    use crate::trace::TraceRecord;

    /// Collects a single-threaded trace with control deps and pairs.
    fn collect(src: &str) -> (GlobalTrace, HashMap<RecordId, RecordId>) {
        let p = Arc::new(assemble(src).unwrap());
        // Discovery pass.
        let mut cfg = Cfg::build(&p);
        {
            let mut exec = Executor::new(Arc::clone(&p));
            let mut env = LiveEnv::new(0);
            while !exec.all_halted() {
                let (ev, trapped) = match exec.step(0, &mut env) {
                    Ok((ev, _)) => (ev, false),
                    Err((ev, _)) => (ev, true),
                };
                if ev.instr.is_indirect_jump() {
                    cfg.observe_indirect(ev.pc, ev.next_pc);
                }
                if trapped {
                    break;
                }
            }
        }
        let mut tracker = ControlTracker::new(cfg, true);
        let mut det = PairDetector::new(PairCandidates::find(&p, 10));
        let mut exec = Executor::new(Arc::clone(&p));
        let mut env = LiveEnv::new(0);
        let mut recs: Vec<TraceRecord> = Vec::new();
        loop {
            if exec.all_halted() {
                break;
            }
            let step = exec.step(0, &mut env);
            let ev = match &step {
                Ok((ev, _)) => *ev,
                Err((ev, _)) => *ev,
            };
            let id = recs.len() as RecordId;
            let cd = tracker.on_event(&ev, id);
            det.on_event(&ev, id);
            recs.push(TraceRecord {
                id,
                tid: ev.tid,
                pc: ev.pc,
                instance: ev.instance,
                instr: ev.instr,
                next_pc: ev.next_pc,
                uses: ev.uses,
                defs: ev.defs,
                spawned: ev.spawned,
                cd_parent: cd,
                line: p.line_of(ev.pc),
            });
            if step.is_err() {
                break;
            }
        }
        (GlobalTrace::build(recs), det.finish())
    }

    /// The slice of `criterion` through a fresh dependence index.
    fn indexed(
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        criterion: Criterion,
        options: &SliceOptions,
    ) -> Slice {
        let index = DepIndex::build(trace, pairs, options);
        compute_slice_indexed(&index, criterion)
    }

    fn slice_at_last(
        trace: &GlobalTrace,
        pairs: &HashMap<RecordId, RecordId>,
        pc: Pc,
        options: SliceOptions,
    ) -> Slice {
        let crit = trace
            .rfind(|r| r.pc == pc)
            .expect("criterion pc executed")
            .id;
        indexed(trace, pairs, Criterion::Record { id: crit }, &options)
    }

    #[test]
    fn straight_line_data_chain() {
        let (trace, pairs) = collect(
            r"
            .text
            .func main
                movi r1, 2      ; 0
                movi r9, 77     ; 1 (irrelevant)
                addi r2, r1, 3  ; 2
                add  r3, r2, r2 ; 3
                halt            ; 4
            .endfunc
            ",
        );
        let s = slice_at_last(&trace, &pairs, 3, SliceOptions::default());
        let pcs = s.pcs(&trace);
        assert!(pcs.contains(&0) && pcs.contains(&2) && pcs.contains(&3));
        assert!(!pcs.contains(&1), "irrelevant def excluded");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn control_dependence_pulls_in_branch_and_its_operands() {
        let (trace, pairs) = collect(
            r"
            .text
            .func main
                movi r0, 1       ; 0 (feeds branch)
                movi r9, 5       ; 1 (irrelevant)
                beqi r0, 0, els  ; 2
                movi r1, 10      ; 3 (CD on 2)
                jmp join         ; 4
            els:
                movi r1, 20      ; 5
            join:
                add r2, r1, r1   ; 6
                halt             ; 7
            .endfunc
            ",
        );
        let s = slice_at_last(&trace, &pairs, 6, SliceOptions::default());
        let pcs = s.pcs(&trace);
        assert!(pcs.contains(&3), "taken arm included via data dep");
        assert!(pcs.contains(&2), "branch included via control dep");
        assert!(pcs.contains(&0), "branch operand included transitively");
        assert!(!pcs.contains(&1));
        assert!(
            !pcs.contains(&5),
            "untaken arm never executed... or unrelated"
        );
    }

    #[test]
    fn loop_carried_dependences() {
        let (trace, pairs) = collect(
            r"
            .text
            .func main
                movi r0, 3      ; 0
                movi r1, 0      ; 1
            top:
                add  r1, r1, r0 ; 2
                subi r0, r0, 1  ; 3
                bgti r0, 0, top ; 4
                halt            ; 5
            .endfunc
            ",
        );
        let s = slice_at_last(&trace, &pairs, 2, SliceOptions::default());
        // The last accumulation depends on every earlier iteration.
        let instances: Vec<u64> = s
            .records
            .iter()
            .filter_map(|&id| trace.record(id))
            .filter(|r| r.pc == 2)
            .map(|r| r.instance)
            .collect();
        assert_eq!(instances.len(), 3, "all three accumulations in slice");
    }

    /// The paper's Fig. 8/§5.2 scenario, in miniature: a slice through a
    /// callee's save/restore drags in the call's guard unless pruned.
    #[test]
    fn save_restore_bypass_shrinks_slice() {
        let src = r"
            .text
            .func q
                push r1        ; 0: save r1
                movi r1, 5     ; 1: clobber (the callee's real work)
                addi r5, r1, 1 ; 2
                pop r1         ; 3: restore r1
                ret            ; 4
            .endfunc
            .func main
                read r0          ; 5: c = input  (like fgetc)
                movi r1, 7       ; 6: e = 7 (lives in r1 across the call)
                beqi r0, 0, skip ; 7: if (c) ...
                call q           ; 8:   q()   (CD on 7)
            skip:
                add r2, r1, r1   ; 9: w = e + e   <- slice criterion
                halt             ; 10
            .endfunc
            ";
        let (trace, pairs) = collect(src);
        assert_eq!(pairs.len(), 1, "the q() save/restore pair verifies");

        let pruned = slice_at_last(&trace, &pairs, 9, SliceOptions::default());
        let unpruned = slice_at_last(
            &trace,
            &pairs,
            9,
            SliceOptions {
                prune_save_restore: false,
                ..SliceOptions::new()
            },
        );

        let ppcs = pruned.pcs(&trace);
        let upcs = unpruned.pcs(&trace);
        // Unpruned: r1's reaching def at pc 9 is the restore (pop) at 3,
        // whose stack-slot chain reaches the save at 0, which is control
        // dependent (via the callee frame) on the branch at 7, dragging in
        // the input read at 5.
        assert!(upcs.contains(&3), "unpruned slice includes the restore");
        assert!(upcs.contains(&7), "unpruned slice includes the guard");
        assert!(upcs.contains(&5), "unpruned slice includes the input read");
        // Pruned: bypass restores the direct dependence on movi r1, 7.
        assert!(ppcs.contains(&6), "true def included");
        assert!(!ppcs.contains(&3), "restore bypassed");
        assert!(!ppcs.contains(&0), "save not included");
        assert!(!ppcs.contains(&7), "spurious control context pruned");
        assert!(!ppcs.contains(&5));
        assert!(pruned.len() < unpruned.len());
        assert_eq!(pruned.stats.bypasses, 1);
    }

    #[test]
    fn value_criterion_narrows_to_one_operand() {
        let (trace, pairs) = collect(
            r"
            .text
            .func main
                movi r1, 2      ; 0
                movi r2, 3      ; 1
                add  r3, r1, r2 ; 2
                halt            ; 3
            .endfunc
            ",
        );
        let crit = trace.rfind(|r| r.pc == 2).unwrap().id;
        let s = indexed(
            &trace,
            &pairs,
            Criterion::Value {
                id: crit,
                key: LocKey::Reg(0, Reg(1)),
            },
            &SliceOptions::default(),
        );
        let pcs = s.pcs(&trace);
        assert!(pcs.contains(&0), "r1's def included");
        assert!(!pcs.contains(&1), "r2's def excluded for a value slice");
    }

    /// The dependence index and the naive oracle must agree exactly —
    /// records, edges, and edge order — on every scenario above, including
    /// the save/restore bypass (whose deferral logic is the trickiest part
    /// to keep aligned).
    #[test]
    fn indexed_and_naive_agree_on_all_scenarios() {
        let scenarios: &[&str] = &[
            r"
            .text
            .func main
                movi r1, 2
                movi r9, 77
                addi r2, r1, 3
                add  r3, r2, r2
                halt
            .endfunc
            ",
            r"
            .text
            .func main
                movi r0, 1
                movi r9, 5
                beqi r0, 0, els
                movi r1, 10
                jmp join
            els:
                movi r1, 20
            join:
                add r2, r1, r1
                halt
            .endfunc
            ",
            r"
            .text
            .func main
                movi r0, 3
                movi r1, 0
            top:
                add  r1, r1, r0
                subi r0, r0, 1
                bgti r0, 0, top
                halt
            .endfunc
            ",
            r"
            .text
            .func q
                push r1
                movi r1, 5
                addi r5, r1, 1
                pop r1
                ret
            .endfunc
            .func main
                read r0
                movi r1, 7
                beqi r0, 0, skip
                call q
            skip:
                add r2, r1, r1
                halt
            .endfunc
            ",
        ];
        for (i, src) in scenarios.iter().enumerate() {
            let (trace, pairs) = collect(src);
            // Slice at every executed record, both criteria kinds where
            // applicable, with pruning on and off.
            for prune in [true, false] {
                let opts = SliceOptions {
                    prune_save_restore: prune,
                    ..SliceOptions::new()
                };
                let index = DepIndex::build(&trace, &pairs, &opts);
                for r in trace.records() {
                    let crit = Criterion::Record { id: r.id };
                    let naive = compute_slice_naive(&trace, crit, &pairs, opts.clone());
                    let indexed = compute_slice_indexed(&index, crit);
                    assert_eq!(naive.records, indexed.records, "scenario {i} records");
                    assert_eq!(
                        naive.data_edges, indexed.data_edges,
                        "scenario {i} data edges"
                    );
                    assert_eq!(
                        naive.control_edges, indexed.control_edges,
                        "scenario {i} control edges"
                    );
                }
            }
        }
    }

    /// The indexed path agrees with the naive oracle on `Value` criteria
    /// and pruned keys too, and repeated queries against one index are
    /// deterministic (stats included).
    #[test]
    fn indexed_value_criteria_and_prune_keys_match_naive() {
        let (trace, pairs) = collect(
            r"
            .text
            .func q
                push r1
                movi r1, 5
                addi r5, r1, 1
                pop r1
                ret
            .endfunc
            .func main
                read r0
                movi r1, 7
                beqi r0, 0, skip
                call q
            skip:
                add r2, r1, r1
                halt
            .endfunc
            ",
        );
        let prune_sets: Vec<SliceOptions> = vec![
            SliceOptions::new(),
            SliceOptions::new().prune_key(LocKey::Reg(0, minivm::Reg(1))),
            SliceOptions {
                prune_save_restore: false,
                ..SliceOptions::new()
            },
        ];
        for opts in prune_sets {
            let index = DepIndex::build(&trace, &pairs, &opts);
            assert_eq!(index.options_fingerprint(), opts.fingerprint());
            for r in trace.records() {
                let mut criteria = vec![Criterion::Record { id: r.id }];
                for (k, _) in r.use_keys(false) {
                    criteria.push(Criterion::Value { id: r.id, key: k });
                }
                for crit in criteria {
                    let naive = compute_slice_naive(&trace, crit, &pairs, opts.clone());
                    let indexed = compute_slice_indexed(&index, crit);
                    assert_eq!(naive.records, indexed.records, "{crit:?} records");
                    assert_eq!(naive.data_edges, indexed.data_edges, "{crit:?} data edges");
                    assert_eq!(
                        naive.control_edges, indexed.control_edges,
                        "{crit:?} control edges"
                    );
                    let again = compute_slice_indexed(&index, crit);
                    assert_eq!(indexed.records, again.records);
                    assert_eq!(indexed.stats, again.stats, "indexed stats deterministic");
                }
            }
        }
    }

    #[test]
    fn slice_includes_failure_point_of_trap() {
        let (trace, pairs) = collect(
            r"
            .text
            .func main
                movi r1, 1      ; 0
                subi r1, r1, 1  ; 1
                assert r1       ; 2 -> fails
                halt            ; 3
            .endfunc
            ",
        );
        let s = slice_at_last(&trace, &pairs, 2, SliceOptions::default());
        let pcs = s.pcs(&trace);
        assert_eq!(pcs, vec![0u32, 1, 2]);
    }
}

#[cfg(test)]
mod prune_vars_tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, Reg, RoundRobin};
    use pinplay::record_whole_program;

    use crate::collect::{SliceSession, SlicerOptions};

    /// The Fig. 9 "Prune Vars" workflow: suppressing a well-understood
    /// input cuts its whole backward cone from the slice.
    #[test]
    fn pruned_variable_cone_is_cut() {
        let program = Arc::new(
            assemble(
                r"
                .data
                config: .word 0
                .text
                .func main
                    ; long, well-understood configuration chain
                    movi r1, 3      ; 0
                    addi r1, r1, 4  ; 1
                    mul  r1, r1, r1 ; 2
                    la r2, config   ; 3
                    store r1, r2, 0 ; 4
                    ; the computation under investigation
                    movi r3, 10     ; 5
                    load r4, r2, 0  ; 6  reads config
                    add r5, r3, r4  ; 7  <- criterion
                    halt            ; 8
                .endfunc
                ",
            )
            .unwrap(),
        );
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "prune-vars",
        )
        .unwrap();
        let session =
            SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
        let crit = session.last_at_pc(7).unwrap().id;
        let config = program.symbol("config").unwrap();

        let full = session.slice(Criterion::Record { id: crit });
        let pruned = session.slice_with(
            Criterion::Record { id: crit },
            SliceOptions::new().prune_key(LocKey::Mem(config)),
        );
        let fp = full.pcs(session.trace());
        let pp = pruned.pcs(session.trace());
        assert!(fp.contains(&4), "full slice chases config's store");
        assert!(fp.contains(&0), "...and its whole chain");
        assert!(!pp.contains(&4), "pruned slice stops at the config read");
        assert!(!pp.contains(&0));
        assert!(pp.contains(&6), "the reading statement itself stays");
        assert!(pp.contains(&5), "the other operand's chain stays");
        assert!(pruned.len() < full.len());
    }

    /// Pruning a register key works the same way, and naive agrees with the
    /// indexed slice.
    #[test]
    fn pruned_register_and_indexed_naive_agreement() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 2      ; 0
                    movi r2, 3      ; 1
                    add  r3, r1, r2 ; 2
                    halt            ; 3
                .endfunc
                ",
            )
            .unwrap(),
        );
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "prune-reg",
        )
        .unwrap();
        let session =
            SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
        let crit = session.last_at_pc(2).unwrap().id;
        let opts = SliceOptions::new().prune_key(LocKey::Reg(0, Reg(1)));
        let indexed = session.slice_with(Criterion::Record { id: crit }, opts.clone());
        let naive = compute_slice_naive(
            session.trace(),
            Criterion::Record { id: crit },
            session.pairs(),
            opts,
        );
        assert_eq!(indexed.records, naive.records);
        let pcs = indexed.pcs(session.trace());
        assert!(!pcs.contains(&0), "r1's def pruned");
        assert!(pcs.contains(&1), "r2's def kept");
    }

    #[test]
    fn options_fingerprint_is_stable_and_output_sensitive() {
        use minivm::Reg;

        let base = SliceOptions::new();
        assert_eq!(base.fingerprint(), SliceOptions::new().fingerprint());

        // Insertion order of prune keys must not matter.
        let ab = SliceOptions::new()
            .prune_key(LocKey::Reg(0, Reg(1)))
            .prune_key(LocKey::Mem(0x40));
        let ba = SliceOptions::new()
            .prune_key(LocKey::Mem(0x40))
            .prune_key(LocKey::Reg(0, Reg(1)));
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_ne!(base.fingerprint(), ab.fingerprint());

        // §5.2 pruning changes the output.
        let mut no_sr = ab.clone();
        no_sr.prune_save_restore = false;
        assert_ne!(ab.fingerprint(), no_sr.fingerprint());
    }
}
