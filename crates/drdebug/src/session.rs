//! The replay-based debug session — DrDebug's core loop (paper Fig. 2).
//!
//! A [`DebugSession`] replays a pinball under interactive control: set
//! breakpoints, continue, single-step, inspect registers and memory — "all
//! regular debugging commands (except state modification) continue to work"
//! (paper §1). Because every run replays the same pinball, each debug
//! iteration "observes the exact same program state (heap/stack location,
//! outcome of system calls, thread schedule)": [`DebugSession::restart`] is
//! the cyclic-debugging primitive.
//!
//! On top of replay the session serves the paper's new commands: computing
//! dynamic slices at a stop point, saving a slice, generating the slice
//! pinball via the relogger, and re-seating the session on the slice
//! pinball for slice-level stepping (paper Fig. 4).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minivm::{Addr, Pc, Program, Reg, Tid, ToolControl, VmError};
use pinplay::{Pinball, PinballContainer, PinballDigest, ReplayStatus, Replayer};
use slicer::{
    compute_slice_indexed, slice_members_indexed, Criterion, DepIndex, LocKey, Slice, SliceMetrics,
    SliceOptions, SliceSession, SliceStats, SlicerOptions,
};

/// A breakpoint on a program point, optionally filtered by thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakpoint {
    /// Program point.
    pub pc: Pc,
    /// Restrict to one thread (`None` = any thread).
    pub tid: Option<Tid>,
    /// Disabled breakpoints are kept but never hit.
    pub enabled: bool,
}

/// A watchpoint on a memory word: the session stops when it is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchpoint {
    /// Watched address.
    pub addr: Addr,
    /// Disabled watchpoints are kept but never hit.
    pub enabled: bool,
}

/// Why the session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A breakpoint was hit (the instruction at its pc has just retired).
    Breakpoint {
        /// Breakpoint id.
        id: u32,
        /// Thread that hit it.
        tid: Tid,
        /// The breakpoint's pc.
        pc: Pc,
    },
    /// A watchpoint was hit: the watched address was just written.
    Watchpoint {
        /// Watchpoint id.
        id: u32,
        /// Writing thread.
        tid: Tid,
        /// The writing instruction's pc.
        pc: Pc,
        /// The value written.
        value: i64,
    },
    /// Reverse execution reached the region entry.
    ReplayStart,
    /// One instruction was stepped.
    Stepped {
        /// Thread that stepped.
        tid: Tid,
        /// The stepped instruction's pc.
        pc: Pc,
    },
    /// The replay log is exhausted — the end of the recorded region.
    ReplayEnd,
    /// The recorded trap reproduced (the bug fired, deterministically).
    Trapped(VmError),
}

/// Where the session last stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopSite {
    /// Thread of the last retired instruction.
    pub tid: Tid,
    /// Its pc.
    pub pc: Pc,
    /// Its region-relative instance count.
    pub instance: u64,
    /// Its region-relative global sequence number (slice criterion handle).
    pub seq: u64,
}

/// Counters for the session's seek machinery: how stop-point repositioning
/// was served. Reported alongside [`SliceMetrics`] by the `metrics`
/// command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeekMetrics {
    /// Seeks performed (reverse execution, `seek`, and cached `continue`).
    pub seeks: u64,
    /// Seeks served by restoring an embedded container checkpoint.
    pub container_restores: u64,
    /// Seeks served by a session-local (in-memory) checkpoint clone.
    pub session_restores: u64,
    /// Seeks that had to restart replay from the region entry — the
    /// O(region) fallback the chunked container exists to avoid.
    pub full_restarts: u64,
    /// `continue` calls answered from the hop cache (cyclic-debugging
    /// re-runs with an unchanged breakpoint set).
    pub hop_hits: u64,
    /// Instructions replayed while seeking.
    pub instructions_replayed: u64,
    /// Wall time spent seeking.
    pub wall: Duration,
}

impl std::fmt::Display for SeekMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seeks            {:>8}  ({} container restores, {} session restores, {} full restarts)",
            self.seeks, self.container_restores, self.session_restores, self.full_restarts
        )?;
        writeln!(f, "hop-cache hits   {:>8}", self.hop_hits)?;
        writeln!(
            f,
            "seek replay      {:>8} instructions in {:?}",
            self.instructions_replayed, self.wall
        )
    }
}

/// An interactive, replay-based debugging session over one pinball.
pub struct DebugSession {
    program: Arc<Program>,
    /// The pinball plus any checkpoints embedded in its container. Shared
    /// (never cloned) so every internal replayer reads the same event log
    /// through [`Replayer::shared`], and a server can hand the same parsed
    /// container to many sessions.
    container: Arc<PinballContainer>,
    replayer: Replayer,
    breakpoints: BTreeMap<u32, Breakpoint>,
    watchpoints: BTreeMap<u32, Watchpoint>,
    /// Periodic replay checkpoints `(instructions retired, state)` in
    /// ascending order — the §8 reverse-debugging substrate. Checkpoints
    /// survive `restart` (the pinball never changes). These are seeded from
    /// the container's embedded checkpoints and grown during `cont`.
    checkpoints: Vec<(u64, Replayer)>,
    checkpoint_interval: u64,
    next_bp: u32,
    last_event: Option<StopSite>,
    /// `continue` hop cache for cyclic debugging: with an unchanged
    /// breakpoint/watchpoint set, replay determinism makes every
    /// `cont` from position `p` stop at the same position and reason, so
    /// the second iteration of a break→continue loop becomes a seek.
    hops: HashMap<u64, (u64, StopReason)>,
    seek_metrics: SeekMetrics,
    /// Collected lazily on the first slice request and reused across the
    /// whole session (paper §7: "the dynamic information can be used for
    /// multiple slicing sessions").
    slicer: Option<SliceSession>,
    /// The Fig. 9 "Prune Vars" set: locations whose dependences slice
    /// requests do not chase.
    prune_keys: std::collections::HashSet<LocKey>,
    saved_slices: Vec<Slice>,
    /// Statistics and wall time of the most recent slice traversal, folded
    /// into [`DebugSession::metrics`].
    last_traversal: Option<(SliceStats, Duration)>,
    /// The reusable dependence index, keyed by the
    /// [`SliceOptions::fingerprint`] it was built for. Built on the first
    /// slice request and reused across `slice`/`restart`/seek cycles;
    /// invalidated when the options fingerprint changes (prune keys, §5.2
    /// toggle).
    dep_index: Option<(u64, Arc<DepIndex>)>,
    /// Index usage of the most recent slice: (build wall, edges built,
    /// answered from a warm index), folded into [`DebugSession::metrics`].
    last_index: Option<(Duration, u64, bool)>,
}

impl std::fmt::Debug for DebugSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DebugSession")
            .field("program", &self.container.pinball.meta.program)
            .field("breakpoints", &self.breakpoints.len())
            .field("stopped_at", &self.last_event)
            .finish()
    }
}

impl DebugSession {
    /// Opens a session replaying `pinball` (no embedded checkpoints — see
    /// [`DebugSession::with_container`]).
    pub fn new(program: Arc<Program>, pinball: Pinball) -> DebugSession {
        DebugSession::with_container(program, PinballContainer::new(pinball))
    }

    /// Opens a session over a chunked container: its embedded checkpoints seed
    /// the session's checkpoint set, so reverse execution and `seek` are
    /// O(chunk) from the first command instead of only after a forward
    /// `continue` has dropped in-memory checkpoints.
    pub fn with_container(program: Arc<Program>, container: PinballContainer) -> DebugSession {
        DebugSession::with_shared_container(program, Arc::new(container))
    }

    /// As [`DebugSession::with_container`], but over an already-shared
    /// container: the session keeps the `Arc` and every replayer it builds
    /// borrows the event log through it — opening a session over a stored
    /// multi-GiB pinball copies no events.
    pub fn with_shared_container(
        program: Arc<Program>,
        container: Arc<PinballContainer>,
    ) -> DebugSession {
        let replayer = Replayer::shared(Arc::clone(&program), Arc::clone(&container));
        let checkpoints = vec![(0, replayer.clone())];
        DebugSession {
            program,
            container,
            replayer,
            breakpoints: BTreeMap::new(),
            watchpoints: BTreeMap::new(),
            checkpoints,
            checkpoint_interval: 4096,
            next_bp: 1,
            last_event: None,
            hops: HashMap::new(),
            seek_metrics: SeekMetrics::default(),
            slicer: None,
            prune_keys: std::collections::HashSet::new(),
            saved_slices: Vec::new(),
            last_traversal: None,
            dep_index: None,
            last_index: None,
        }
    }

    /// The session's seek counters.
    pub fn seek_metrics(&self) -> SeekMetrics {
        self.seek_metrics
    }

    /// Checkpoints currently available for seeking: instruction positions
    /// of embedded container checkpoints and in-memory session checkpoints.
    pub fn checkpoint_positions(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.container.checkpoints.iter().map(|c| c.instr).collect(),
            self.checkpoints.iter().map(|&(s, _)| s).collect(),
        )
    }

    fn invalidate_hops(&mut self) {
        self.hops.clear();
    }

    /// Adds a location to the "Prune Vars" set (paper Fig. 9): subsequent
    /// slice requests will not chase its dependences.
    pub fn add_prune_key(&mut self, key: LocKey) {
        self.prune_keys.insert(key);
    }

    /// Clears the "Prune Vars" set.
    pub fn clear_prune_keys(&mut self) {
        self.prune_keys.clear();
    }

    /// The current "Prune Vars" set.
    pub fn prune_keys(&self) -> &std::collections::HashSet<LocKey> {
        &self.prune_keys
    }

    fn slice_options(&self) -> SliceOptions {
        SliceOptions {
            prune_keys: self.prune_keys.clone(),
            ..SliceOptions::new()
        }
    }

    /// Pipeline metrics: the slicer's collect/merge stage timings plus the
    /// most recent index use and slice traversal. `None` until the first
    /// slice request collects the trace.
    pub fn metrics(&self) -> Option<SliceMetrics> {
        let base = *self.slicer.as_ref()?.metrics();
        let base = match self.last_index {
            Some((wall, edges, warm)) => base.with_index(wall, edges, warm),
            None => base,
        };
        Some(match self.last_traversal {
            Some((stats, wall)) => base.with_traversal(&stats, wall),
            None => base,
        })
    }

    /// Whether the most recent slice was answered from a warm dependence
    /// index (`None` until a slice has been computed).
    pub fn last_slice_warm_index(&self) -> Option<bool> {
        self.last_index.map(|(_, _, warm)| warm)
    }

    /// Records a traversal's statistics for [`DebugSession::metrics`] and
    /// hands the slice back.
    fn timed(&mut self, slice: Slice, started: Instant) -> Slice {
        self.last_traversal = Some((slice.stats, started.elapsed()));
        slice
    }

    /// The program being debugged.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The pinball this session replays.
    pub fn pinball(&self) -> &Pinball {
        &self.container.pinball
    }

    /// The container this session replays (pinball + embedded checkpoints).
    pub fn container(&self) -> &PinballContainer {
        &self.container
    }

    /// Sets a breakpoint; returns its id.
    pub fn add_breakpoint(&mut self, pc: Pc, tid: Option<Tid>) -> u32 {
        self.invalidate_hops();
        let id = self.next_bp;
        self.next_bp += 1;
        self.breakpoints.insert(
            id,
            Breakpoint {
                pc,
                tid,
                enabled: true,
            },
        );
        id
    }

    /// Removes a breakpoint; returns whether it existed.
    pub fn delete_breakpoint(&mut self, id: u32) -> bool {
        self.invalidate_hops();
        self.breakpoints.remove(&id).is_some()
    }

    /// Sets a watchpoint on a memory word; returns its id (breakpoints and
    /// watchpoints share the id space).
    pub fn add_watchpoint(&mut self, addr: Addr) -> u32 {
        self.invalidate_hops();
        let id = self.next_bp;
        self.next_bp += 1;
        self.watchpoints.insert(
            id,
            Watchpoint {
                addr,
                enabled: true,
            },
        );
        id
    }

    /// Removes a watchpoint; returns whether it existed.
    pub fn delete_watchpoint(&mut self, id: u32) -> bool {
        self.invalidate_hops();
        self.watchpoints.remove(&id).is_some()
    }

    /// The current watchpoints.
    pub fn watchpoints(&self) -> impl Iterator<Item = (u32, &Watchpoint)> {
        self.watchpoints.iter().map(|(id, wp)| (*id, wp))
    }

    /// Instructions retired so far in the current replay.
    pub fn position(&self) -> u64 {
        self.replayer.replayed_instructions()
    }

    /// Enables/disables a breakpoint; returns whether it exists.
    pub fn enable_breakpoint(&mut self, id: u32, enabled: bool) -> bool {
        self.invalidate_hops();
        if let Some(bp) = self.breakpoints.get_mut(&id) {
            bp.enabled = enabled;
            true
        } else {
            false
        }
    }

    /// The current breakpoints.
    pub fn breakpoints(&self) -> impl Iterator<Item = (u32, &Breakpoint)> {
        self.breakpoints.iter().map(|(id, bp)| (*id, bp))
    }

    /// Where the session last stopped (the most recently retired
    /// instruction).
    pub fn stopped_at(&self) -> Option<StopSite> {
        self.last_event
    }

    /// Restarts the replay from the region entry — the next iteration of
    /// cyclic debugging. Breakpoints and saved slices are kept; the
    /// observed execution is guaranteed identical.
    pub fn restart(&mut self) {
        self.replayer = Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container));
        self.last_event = None;
    }

    /// Continues replay until a breakpoint or watchpoint hits, the trap
    /// reproduces, or the region ends. Runs in bursts, taking a replay
    /// checkpoint every [`checkpoint_interval`](Self::set_checkpoint_interval)
    /// instructions to keep reverse execution cheap.
    ///
    /// With an unchanged breakpoint/watchpoint set, the stop position and
    /// reason for each starting position are cached: the second and later
    /// iterations of a cyclic break→continue loop are answered by a seek
    /// (O(chunk) with embedded checkpoints) instead of an instrumented
    /// re-scan.
    pub fn cont(&mut self) -> StopReason {
        let from = self.replayer.replayed_instructions();
        if let Some(&(to, reason)) = self.hops.get(&from) {
            self.seek_metrics.hop_hits += 1;
            self.seek(to);
            return reason;
        }
        let reason = self.cont_uncached();
        // Cache only genuinely re-seekable stops: a `seek` lands *after* a
        // retired instruction, so the reproduced state matches.
        if matches!(
            reason,
            StopReason::Breakpoint { .. } | StopReason::Watchpoint { .. } | StopReason::ReplayEnd
        ) {
            self.hops
                .insert(from, (self.replayer.replayed_instructions(), reason));
        }
        reason
    }

    fn cont_uncached(&mut self) -> StopReason {
        loop {
            self.maybe_checkpoint();
            let bps = &self.breakpoints;
            let wps = &self.watchpoints;
            let mut hit: Option<StopReason> = None;
            let mut last: Option<StopSite> = None;
            let mut left = self.checkpoint_interval.max(1);
            let mut tool = |ev: &minivm::InsEvent| {
                last = Some(StopSite {
                    tid: ev.tid,
                    pc: ev.pc,
                    instance: ev.instance,
                    seq: ev.seq,
                });
                hit = stop_hit(bps, wps, ev);
                if hit.is_some() {
                    return ToolControl::Stop;
                }
                left -= 1;
                if left == 0 {
                    ToolControl::Stop // burst boundary: take a checkpoint
                } else {
                    ToolControl::Continue
                }
            };
            let status = self.replayer.run(&mut tool);
            if last.is_some() {
                self.last_event = last;
            }
            match (status, hit) {
                (ReplayStatus::Paused, Some(reason)) => return reason,
                (ReplayStatus::Paused, None) => continue, // burst boundary
                (ReplayStatus::Trapped(e), _) => return StopReason::Trapped(e),
                (ReplayStatus::Completed, _) => return StopReason::ReplayEnd,
            }
        }
    }

    /// Overrides the reverse-debugging checkpoint interval (instructions).
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        self.checkpoint_interval = interval.max(1);
    }

    fn maybe_checkpoint(&mut self) {
        let cur = self.replayer.replayed_instructions();
        let due = match self.checkpoints.last() {
            Some(&(s, _)) => cur >= s + self.checkpoint_interval,
            None => true,
        };
        // Checkpoints are kept sorted by position; out-of-order states
        // (after reverse execution) are simply not re-recorded.
        if due && self.checkpoints.last().is_none_or(|&(s, _)| s < cur) {
            self.checkpoints.push((cur, self.replayer.clone()));
            // Bound memory on very long replays: when the set grows large,
            // thin to every other checkpoint (doubling the effective
            // interval). Seeks before the first remaining checkpoint fall
            // back to replaying from the region entry, so thinning only
            // costs time, never correctness.
            const MAX_CHECKPOINTS: usize = 256;
            if self.checkpoints.len() > MAX_CHECKPOINTS {
                let mut i = 0;
                self.checkpoints.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.checkpoint_interval *= 2;
            }
        }
    }

    /// Seeks the replay to the state after exactly `target` instructions
    /// have retired, restoring the nearest earlier checkpoint — an
    /// in-memory session checkpoint or one embedded in the container,
    /// whichever is closer — and replaying only the tail. This is the
    /// paper §8 recipe ("recording multiple pinballs and then replaying
    /// forward using the right pinball", via user-level checkpointing),
    /// upgraded from O(region) to O(chunk) by the container checkpoints.
    pub fn seek_to(&mut self, target: u64) -> StopReason {
        self.seek(target)
    }

    fn seek(&mut self, target: u64) -> StopReason {
        let started = Instant::now();
        self.seek_metrics.seeks += 1;
        // Restore strictly before the target (when target > 0) so the final
        // instruction is re-stepped and its stop site recorded.
        let limit = target.saturating_sub(1);
        let session_base = self
            .checkpoints
            .iter()
            .rev()
            .find(|&&(s, _)| s <= limit)
            .map(|(s, r)| (*s, r.clone()));
        let container_base = self.container.nearest_checkpoint(limit);
        let mut rep = match (session_base, container_base) {
            (Some((s, _)), Some(cp)) if cp.instr > s => {
                self.seek_metrics.container_restores += 1;
                let mut r =
                    Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container));
                r.restore_checkpoint(cp);
                r
            }
            (Some((_, r)), _) => {
                self.seek_metrics.session_restores += 1;
                r
            }
            (None, Some(cp)) => {
                self.seek_metrics.container_restores += 1;
                let mut r =
                    Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container));
                r.restore_checkpoint(cp);
                r
            }
            (None, None) => {
                self.seek_metrics.full_restarts += 1;
                Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container))
            }
        };
        let base_instr = rep.replayed_instructions();
        let mut last: Option<StopSite> = None;
        while rep.replayed_instructions() < target {
            let mut tool = |ev: &minivm::InsEvent| {
                last = Some(StopSite {
                    tid: ev.tid,
                    pc: ev.pc,
                    instance: ev.instance,
                    seq: ev.seq,
                });
                ToolControl::Continue
            };
            match rep.step(&mut tool) {
                None | Some(ReplayStatus::Completed) | Some(ReplayStatus::Trapped(_)) => break,
                Some(ReplayStatus::Paused) => {}
            }
        }
        self.seek_metrics.instructions_replayed +=
            rep.replayed_instructions().saturating_sub(base_instr);
        self.seek_metrics.wall += started.elapsed();
        self.replayer = rep;
        match last {
            Some(site) => {
                self.last_event = Some(site);
                StopReason::Stepped {
                    tid: site.tid,
                    pc: site.pc,
                }
            }
            None => {
                self.last_event = None;
                StopReason::ReplayStart
            }
        }
    }

    /// Steps one instruction *backwards*: the session ends up in the state
    /// just before the most recently retired instruction.
    pub fn reverse_stepi(&mut self) -> StopReason {
        let cur = self.replayer.replayed_instructions();
        if cur == 0 {
            return StopReason::ReplayStart;
        }
        self.seek(cur - 1)
    }

    /// rr-style name for [`DebugSession::reverse_stepi`]: restores the
    /// nearest earlier checkpoint and replays forward to the state exactly
    /// one instruction back.
    pub fn reverse_step(&mut self) -> StopReason {
        self.reverse_stepi()
    }

    /// Steps `n` instructions forward, stopping early at a trap or the end
    /// of the region. Returns the last stop reason (`ReplayStart` when
    /// `n == 0`).
    pub fn run_steps(&mut self, n: u64) -> StopReason {
        let mut last = StopReason::ReplayStart;
        for _ in 0..n {
            last = self.stepi();
            if matches!(last, StopReason::ReplayEnd | StopReason::Trapped(_)) {
                break;
            }
        }
        last
    }

    /// A digest of the complete replay state at the current position
    /// (machine state, syscall queues, log cursor — see
    /// [`Replayer::state_digest`]). Replay determinism makes this a pure
    /// function of the position: `reverse_step` after `run_steps(n)` lands
    /// on exactly the hash observed at step `n - 1`, however the seek was
    /// served (session checkpoint, container checkpoint, or full restart).
    pub fn state_hash(&self) -> u64 {
        self.replayer.state_digest()
    }

    /// A replayer positioned at exactly `base` retired instructions, restored
    /// from the cheapest matching checkpoint (session clone, then embedded
    /// container checkpoint, then the region entry). Reverse execution uses
    /// this to probe one checkpoint window at a time.
    fn probe_at(&mut self, base: u64) -> Replayer {
        if let Some((_, r)) = self.checkpoints.iter().rev().find(|&&(s, _)| s == base) {
            self.seek_metrics.session_restores += 1;
            return r.clone();
        }
        if let Some(cp) = self.container.nearest_checkpoint(base) {
            if cp.instr == base {
                self.seek_metrics.container_restores += 1;
                let mut r =
                    Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container));
                r.restore_checkpoint(cp);
                return r;
            }
        }
        self.seek_metrics.full_restarts += 1;
        Replayer::shared(Arc::clone(&self.program), Arc::clone(&self.container))
    }

    /// Runs *backwards* to the most recent breakpoint/watchpoint hit before
    /// the current position (or to the region entry if none) — the rr
    /// recipe: restore the nearest checkpoint and replay forward through its
    /// window looking for the *last* hit, widening to the previous
    /// checkpoint only when the window contains none. The scan therefore
    /// replays O(window) instructions when the hit is recent — the common
    /// cyclic-debugging case — instead of always rescanning from the region
    /// entry.
    pub fn reverse_continue(&mut self) -> StopReason {
        let cur = self.replayer.replayed_instructions();
        if cur == 0 {
            return StopReason::ReplayStart;
        }
        let started = Instant::now();
        // Candidate window bases: the region entry plus every checkpoint
        // (embedded or session-local) strictly before the current position.
        let mut bases: Vec<u64> = std::iter::once(0)
            .chain(self.container.checkpoints.iter().map(|c| c.instr))
            .chain(self.checkpoints.iter().map(|&(s, _)| s))
            .filter(|&s| s < cur)
            .collect();
        bases.sort_unstable();
        bases.dedup();
        // Windows cover stop positions in (base, upper], youngest first; a
        // stop position `p` means "after `p` instructions retired", and the
        // search is capped at `cur - 1` so the hit is strictly in the past.
        let mut upper = cur;
        for i in (0..bases.len()).rev() {
            let base = bases[i];
            let stop_at = upper.min(cur - 1);
            if stop_at <= base {
                upper = base;
                continue;
            }
            let mut probe = self.probe_at(base);
            let probe_base = probe.replayed_instructions();
            let bps = &self.breakpoints;
            let wps = &self.watchpoints;
            let mut best: Option<(u64, StopReason)> = None;
            let mut tool = |ev: &minivm::InsEvent| {
                let after = ev.seq + 1;
                if after > stop_at {
                    return ToolControl::Stop;
                }
                if let Some(reason) = stop_hit(bps, wps, ev) {
                    best = Some((after, reason));
                }
                if after == stop_at {
                    ToolControl::Stop
                } else {
                    ToolControl::Continue
                }
            };
            let _ = probe.run(&mut tool);
            self.seek_metrics.instructions_replayed +=
                probe.replayed_instructions().saturating_sub(probe_base);
            if let Some((pos, reason)) = best {
                self.seek_metrics.wall += started.elapsed();
                self.seek(pos);
                return reason;
            }
            upper = base;
        }
        self.seek_metrics.wall += started.elapsed();
        self.seek(0)
    }

    /// Steps one instruction of the replay.
    pub fn stepi(&mut self) -> StopReason {
        let mut last: Option<StopSite> = None;
        let mut tool = |ev: &minivm::InsEvent| {
            last = Some(StopSite {
                tid: ev.tid,
                pc: ev.pc,
                instance: ev.instance,
                seq: ev.seq,
            });
            ToolControl::Continue
        };
        match self.replayer.step(&mut tool) {
            None => StopReason::ReplayEnd,
            Some(status) => {
                if last.is_some() {
                    self.last_event = last;
                }
                match status {
                    ReplayStatus::Trapped(e) => StopReason::Trapped(e),
                    ReplayStatus::Completed => StopReason::ReplayEnd,
                    ReplayStatus::Paused => {
                        let site = self.last_event.expect("stepped event recorded");
                        StopReason::Stepped {
                            tid: site.tid,
                            pc: site.pc,
                        }
                    }
                }
            }
        }
    }

    /// Reads a register of a thread (the `print $r` command); `None` for
    /// a thread the replay has not created or a register past
    /// [`minivm::isa::NUM_REGS`].
    pub fn read_reg(&self, tid: Tid, reg: Reg) -> Option<i64> {
        let exec = self.replayer.exec();
        if (tid as usize) >= exec.num_threads() {
            return None;
        }
        exec.thread(tid).regs.get(reg.index()).copied()
    }

    /// Reads a memory word (the `x` command).
    pub fn read_mem(&self, addr: Addr) -> i64 {
        self.replayer.exec().read_mem(addr)
    }

    /// Resolves a data symbol and reads its value.
    pub fn read_symbol(&self, name: &str) -> Option<i64> {
        self.program.symbol(name).map(|a| self.read_mem(a))
    }

    /// Current pc of each live thread (the `info threads` command).
    pub fn threads(&self) -> Vec<(Tid, Pc, bool)> {
        let exec = self.replayer.exec();
        (0..exec.num_threads() as Tid)
            .map(|t| {
                let th = exec.thread(t);
                (t, th.pc, th.is_runnable())
            })
            .collect()
    }

    /// The slicing session for this pinball, collected on first use.
    pub fn slicer(&mut self) -> &SliceSession {
        if self.slicer.is_none() {
            self.slicer = Some(SliceSession::collect(
                Arc::clone(&self.program),
                &self.container.pinball,
                SlicerOptions::default(),
            ));
        }
        self.slicer.as_ref().expect("collected above")
    }

    /// The slicing session if it has already been collected (borrow-friendly
    /// companion to [`DebugSession::slicer`]).
    pub fn slicer_ref(&self) -> Option<&SliceSession> {
        self.slicer.as_ref()
    }

    /// The trace record id of the current stop point, if the session is
    /// stopped anywhere: the stop's retire sequence number, which
    /// collection makes the record's id. Known without collecting the
    /// trace, as [`DebugSession::failure_record_id`] is.
    pub fn record_at_stop(&self) -> Option<slicer::RecordId> {
        self.stopped_at().map(|site| site.seq)
    }

    /// Computes a slice for an explicit criterion under explicit options —
    /// the server-side entry point: a pooled session serves criteria that
    /// arrive over the wire rather than from the interactive stop point.
    /// Timing is folded into [`DebugSession::metrics`] like every other
    /// slice request.
    pub fn slice_criterion(&mut self, criterion: Criterion, opts: SliceOptions) -> Slice {
        let fingerprint = opts.fingerprint();
        let warm = self
            .dep_index
            .as_ref()
            .is_some_and(|&(f, _)| f == fingerprint);
        let index = self.dep_index_for(&opts);
        self.last_index = Some(if warm {
            (Duration::ZERO, 0, true)
        } else {
            (index.stats().wall, index.stats().edges as u64, false)
        });
        let started = Instant::now();
        let slice = compute_slice_indexed(&index, criterion);
        self.timed(slice, started)
    }

    /// The dependence index for `opts`, built (and cached for subsequent
    /// queries) if absent or built for a different options fingerprint.
    /// Collects the trace on first use.
    pub fn dep_index_for(&mut self, opts: &SliceOptions) -> Arc<DepIndex> {
        let fingerprint = opts.fingerprint();
        if let Some((f, idx)) = &self.dep_index {
            if *f == fingerprint {
                return Arc::clone(idx);
            }
        }
        self.slicer(); // ensure collected
        let slicer = self.slicer.as_ref().expect("collected above");
        let index = Arc::new(DepIndex::build(slicer.trace(), slicer.pairs(), opts));
        self.dep_index = Some((fingerprint, Arc::clone(&index)));
        index
    }

    /// The cached dependence index, if any, with the options fingerprint it
    /// was built for.
    pub fn dep_index(&self) -> Option<(u64, Arc<DepIndex>)> {
        self.dep_index
            .as_ref()
            .map(|(f, idx)| (*f, Arc::clone(idx)))
    }

    /// Installs a dependence index built elsewhere (the server shares one
    /// index across every pooled session of a pinball digest — replay
    /// determinism makes their traces identical). Subsequent
    /// [`DebugSession::slice_criterion`] calls under options with the same
    /// fingerprint are answered from it without rebuilding.
    pub fn install_dep_index(&mut self, fingerprint: u64, index: Arc<DepIndex>) {
        self.dep_index = Some((fingerprint, index));
    }

    /// Computes a slice for the value of `key` at the current stop point —
    /// the `slice` command of paper Fig. 9 ("Thread Id / Line Num /
    /// Variable" fields).
    pub fn slice_here(&mut self, key: LocKey) -> Option<Slice> {
        let id = self.record_at_stop()?;
        Some(self.slice_criterion(Criterion::Value { id, key }, self.slice_options()))
    }

    /// Computes a slice for everything used at the current stop point.
    pub fn slice_here_record(&mut self) -> Option<Slice> {
        let id = self.record_at_stop()?;
        Some(self.slice_criterion(Criterion::Record { id }, self.slice_options()))
    }

    /// Computes a slice for a value at the last execution of a *source
    /// line* — the KDbg dialog's "Line Num / Variable" fields (paper
    /// Fig. 9). `key` of `None` slices on everything the statement used.
    pub fn slice_at_line(&mut self, line: u32, key: Option<LocKey>) -> Option<Slice> {
        let slicer = self.slicer();
        let rec = slicer
            .trace()
            .records()
            .iter()
            .filter(|r| r.line == line)
            .max_by_key(|r| r.id)?;
        let id = rec.id;
        let criterion = match key {
            Some(key) => Criterion::Value { id, key },
            None => Criterion::Record { id },
        };
        Some(self.slice_criterion(criterion, self.slice_options()))
    }

    /// The record id of the failure point: the last instruction the
    /// pinball's replay retires, the same record as
    /// [`SliceSession::failure_record`], known without collecting the
    /// trace. `None` for a pinball that retires nothing.
    pub fn failure_record_id(&self) -> Option<slicer::RecordId> {
        self.container.pinball.logged_instructions().checked_sub(1)
    }

    /// Computes a slice at the failure point (last record of the trace).
    pub fn slice_failure(&mut self) -> Option<Slice> {
        let id = self.failure_record_id()?;
        Some(self.slice_criterion(Criterion::Record { id }, self.slice_options()))
    }

    /// Saves a slice for later slice-pinball generation; returns its index.
    pub fn save_slice(&mut self, slice: Slice) -> usize {
        self.saved_slices.push(slice);
        self.saved_slices.len() - 1
    }

    /// The saved slices.
    pub fn saved_slices(&self) -> &[Slice] {
        &self.saved_slices
    }

    /// Generates the slice pinball for a saved slice (paper Fig. 4(b)).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn make_slice_pinball(&mut self, index: usize) -> Pinball {
        assert!(index < self.saved_slices.len(), "no saved slice {index}");
        self.slicer(); // ensure collected
        let slicer = self.slicer.as_ref().expect("collected above");
        let slice = &self.saved_slices[index];
        let (pb, _, _) = slicer.make_slice_pinball(&self.container.pinball, slice);
        pb
    }

    /// Relogs a saved slice into a v4 slice-pinball *container*: the slice
    /// pinball of [`DebugSession::make_slice_pinball`], packaged with
    /// embedded checkpoints at the session's checkpoint interval and
    /// content-addressed by its digest — ready to be written to disk,
    /// uploaded to drserve, or opened as a fresh [`DebugSession`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn relog_slice(&mut self, index: usize) -> (PinballContainer, RelogReport) {
        assert!(index < self.saved_slices.len(), "no saved slice {index}");
        let len = self.slicer().trace().records().len();
        let in_slice = self.saved_slices[index].members(len);
        self.relog_members(&in_slice)
    }

    /// Relogs the slice of an explicit criterion in one step — the
    /// server-side `Relog` entry point. The slice is never materialized:
    /// its records come as a bitmap from a walk over the dependence index
    /// ([`slice_members_indexed`]), which a cold session builds and caches
    /// through [`DebugSession::dep_index_for`], and the slice pinball is
    /// emitted from the collected trace with no replay of the region
    /// ([`slicer::emit_slice_pinball`]). The result equals
    /// [`DebugSession::relog_slice`] of the saved
    /// [`DebugSession::slice_criterion`] at the same criterion.
    pub fn relog_criterion(
        &mut self,
        criterion: Criterion,
        opts: SliceOptions,
    ) -> (PinballContainer, RelogReport) {
        let index = self.dep_index_for(&opts);
        let in_slice = slice_members_indexed(&index, criterion);
        self.relog_members(&in_slice)
    }

    /// Emits, packages and reports the slice pinball of the slice whose
    /// record-id bitmap is `in_slice`.
    fn relog_members(&mut self, in_slice: &[bool]) -> (PinballContainer, RelogReport) {
        self.slicer(); // ensure collected
        let slicer = self.slicer.as_ref().expect("collected above");
        let (pb, relog_stats, excl_stats) =
            slicer::emit_slice_pinball(slicer.trace(), &self.container.pinball, in_slice);
        let instructions = pb.logged_instructions();
        let container =
            PinballContainer::with_checkpoints(pb, &self.program, self.checkpoint_interval);
        let report = RelogReport {
            digest: container.digest(),
            instructions,
            kept: relog_stats.included,
            excluded: relog_stats.excluded,
            in_slice: excl_stats.in_slice,
            forced: excl_stats.forced,
        };
        (container, report)
    }
}

/// The breakpoint or watchpoint that stops on `ev`, if any — the one stop
/// rule forward and reverse execution share: the lowest-id enabled
/// breakpoint on its pc (and thread), else the lowest-id enabled
/// watchpoint on a word it writes.
fn stop_hit(
    bps: &BTreeMap<u32, Breakpoint>,
    wps: &BTreeMap<u32, Watchpoint>,
    ev: &minivm::InsEvent,
) -> Option<StopReason> {
    let (tid, pc) = (ev.tid, ev.pc);
    bps.iter()
        .find(|(_, bp)| bp.enabled && bp.pc == pc && bp.tid.is_none_or(|t| t == tid))
        .map(|(&id, _)| StopReason::Breakpoint { id, tid, pc })
        .or_else(|| {
            wps.iter()
                .filter(|(_, wp)| wp.enabled)
                .find_map(|(&id, wp)| {
                    let value = ev.defs.value_of(minivm::Loc::Mem(wp.addr))?;
                    Some(StopReason::Watchpoint { id, tid, pc, value })
                })
        })
}

/// Summary of a relogging pass: the content digest of the resulting v4
/// slice-pinball container plus how much of the region it kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelogReport {
    /// Content digest of the slice-pinball container (its upload identity
    /// under drserve).
    pub digest: PinballDigest,
    /// Instructions in the slice pinball's replay log.
    pub instructions: u64,
    /// Region instructions kept (slice statements plus forced sync).
    pub kept: u64,
    /// Region instructions excluded (side effects became injections).
    pub excluded: u64,
    /// Kept instances that are slice statements.
    pub in_slice: u64,
    /// Kept instances force-included only for schedule validity
    /// (synchronization and thread-lifecycle instructions).
    pub forced: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    const PROG: &str = r"
        .data
        x: .word 0
        .text
        .func main
            movi r1, 5      ; 0
            la r2, x        ; 1
            store r1, r2, 0 ; 2
            load r3, r2, 0  ; 3
            addi r3, r3, 1  ; 4
            print r3        ; 5
            halt            ; 6
        .endfunc
        ";

    fn session() -> DebugSession {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "session-test",
        )
        .unwrap();
        DebugSession::new(program, rec.pinball)
    }

    #[test]
    fn breakpoint_stops_and_state_is_inspectable() {
        let mut s = session();
        let id = s.add_breakpoint(2, None);
        let stop = s.cont();
        assert_eq!(stop, StopReason::Breakpoint { id, tid: 0, pc: 2 });
        // The store has retired: x == 5, and r1 == 5.
        assert_eq!(s.read_symbol("x"), Some(5));
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 5);
        // r3 not yet loaded.
        assert_eq!(s.read_reg(0, Reg(3)).unwrap(), 0);
        // No thread 7, no register r200.
        assert_eq!(s.read_reg(7, Reg(1)), None);
        assert_eq!(s.read_reg(0, Reg(200)), None);
        assert_eq!(s.cont(), StopReason::ReplayEnd);
        assert_eq!(s.read_reg(0, Reg(3)).unwrap(), 6);
    }

    #[test]
    fn restart_reproduces_identically() {
        let mut s = session();
        s.add_breakpoint(3, None);
        let first = s.cont();
        let x1 = s.read_symbol("x");
        s.restart();
        let second = s.cont();
        let x2 = s.read_symbol("x");
        assert_eq!(first, second, "cyclic debugging: same stop every run");
        assert_eq!(x1, x2);
    }

    #[test]
    fn stepi_walks_instructions() {
        let mut s = session();
        assert_eq!(s.stepi(), StopReason::Stepped { tid: 0, pc: 0 });
        assert_eq!(s.stepi(), StopReason::Stepped { tid: 0, pc: 1 });
        let site = s.stopped_at().unwrap();
        assert_eq!(site.pc, 1);
        assert_eq!(site.instance, 1);
    }

    #[test]
    fn disabled_breakpoint_not_hit() {
        let mut s = session();
        let id = s.add_breakpoint(2, None);
        assert!(s.enable_breakpoint(id, false));
        assert_eq!(s.cont(), StopReason::ReplayEnd);
    }

    #[test]
    fn thread_filtered_breakpoint() {
        let mut s = session();
        let _ = s.add_breakpoint(2, Some(7)); // no thread 7
        assert_eq!(s.cont(), StopReason::ReplayEnd);
    }

    #[test]
    fn slice_at_breakpoint() {
        let mut s = session();
        s.add_breakpoint(4, None);
        s.cont();
        let slice = s.slice_here(LocKey::Reg(0, Reg(3))).expect("slice");
        let slicer = s.slicer();
        let pcs = slice.pcs(slicer.trace());
        // r3 at pc 4 comes from load (3) <- store (2) <- movi (0), la (1).
        assert!(pcs.contains(&3) && pcs.contains(&2) && pcs.contains(&0));
    }

    #[test]
    fn dep_index_reused_across_slices_and_invalidated_on_option_change() {
        let mut s = session();
        s.cont();
        let first = s.slice_failure().expect("slice");
        assert_eq!(
            s.last_slice_warm_index(),
            Some(false),
            "first build is cold"
        );
        let second = s.slice_failure().expect("slice again");
        assert_eq!(s.last_slice_warm_index(), Some(true), "index reused");
        assert_eq!(first.records, second.records);
        assert_eq!(first.data_edges, second.data_edges);
        let m = s.metrics().expect("metrics");
        assert!(m.warm_index);
        assert_eq!(
            m.index_build.wall,
            Duration::ZERO,
            "warm reuse builds nothing"
        );
        // A different criterion still hits the same warm index.
        s.restart();
        s.add_breakpoint(4, None);
        s.cont();
        let _ = s.slice_here(LocKey::Reg(0, Reg(3))).expect("slice here");
        assert_eq!(s.last_slice_warm_index(), Some(true));
        // Changing the prune set changes the fingerprint: cold again.
        s.add_prune_key(LocKey::Reg(0, Reg(1)));
        let _ = s.slice_failure().expect("slice with pruning");
        assert_eq!(
            s.last_slice_warm_index(),
            Some(false),
            "fingerprint change invalidates"
        );
    }

    #[test]
    fn save_slice_and_generate_slice_pinball() {
        let mut s = session();
        s.cont();
        let slice = s.slice_failure().expect("failure slice");
        let idx = s.save_slice(slice);
        let pb = s.make_slice_pinball(idx);
        assert!(pb.meta.is_slice);
    }
}

#[cfg(test)]
mod reverse_tests {
    use super::*;
    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    const PROG: &str = r"
        .data
        x: .word 0
        .text
        .func main
            movi r1, 1      ; 0
            addi r1, r1, 1  ; 1  -> r1 = 2
            addi r1, r1, 1  ; 2  -> r1 = 3
            la r2, x        ; 3
            store r1, r2, 0 ; 4  -> x = 3
            addi r1, r1, 1  ; 5  -> r1 = 4
            store r1, r2, 0 ; 6  -> x = 4
            halt            ; 7
        .endfunc
        ";

    fn session() -> DebugSession {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "reverse-test",
        )
        .unwrap();
        DebugSession::new(program, rec.pinball)
    }

    #[test]
    fn reverse_stepi_rolls_back_state() {
        let mut s = session();
        for _ in 0..3 {
            s.stepi();
        }
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 3);
        assert_eq!(s.position(), 3);
        let stop = s.reverse_stepi();
        assert!(
            matches!(stop, StopReason::Stepped { pc: 1, .. }),
            "{stop:?}"
        );
        assert_eq!(s.position(), 2);
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 2, "state rolled back");
        // Forward again: deterministic.
        let stop = s.stepi();
        assert!(matches!(stop, StopReason::Stepped { pc: 2, .. }));
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 3);
    }

    #[test]
    fn reverse_stepi_to_region_start() {
        let mut s = session();
        s.stepi();
        assert_eq!(s.reverse_stepi(), StopReason::ReplayStart);
        assert_eq!(s.position(), 0);
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 0, "initial state restored");
        assert_eq!(
            s.reverse_stepi(),
            StopReason::ReplayStart,
            "idempotent at start"
        );
    }

    #[test]
    fn watchpoint_stops_on_write_and_reverse_continue_returns_to_it() {
        let mut s = session();
        let x = s.program().symbol("x").unwrap();
        let id = s.add_watchpoint(x);
        // Forward: first write (x = 3).
        let stop = s.cont();
        assert_eq!(
            stop,
            StopReason::Watchpoint {
                id,
                tid: 0,
                pc: 4,
                value: 3
            }
        );
        // Forward again: second write (x = 4).
        let stop = s.cont();
        assert!(matches!(
            stop,
            StopReason::Watchpoint {
                pc: 6,
                value: 4,
                ..
            }
        ));
        assert_eq!(s.read_mem(x), 4);
        // Reverse-continue: back to the *first* write.
        let stop = s.reverse_continue();
        assert!(
            matches!(
                stop,
                StopReason::Watchpoint {
                    pc: 4,
                    value: 3,
                    ..
                }
            ),
            "{stop:?}"
        );
        assert_eq!(s.read_mem(x), 3, "memory rolled back to the first write");
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 3);
    }

    #[test]
    fn reverse_continue_without_hits_reaches_start() {
        let mut s = session();
        s.cont(); // run to the end
        let stop = s.reverse_continue();
        assert_eq!(stop, StopReason::ReplayStart);
        assert_eq!(s.position(), 0);
    }

    #[test]
    fn checkpoints_speed_up_seek_without_changing_results() {
        let mut s = session();
        s.set_checkpoint_interval(2);
        s.cont(); // to end, dropping checkpoints along the way
        let end = s.position();
        // Walk all the way back one step at a time.
        let mut pos = end;
        while pos > 0 {
            s.reverse_stepi();
            pos -= 1;
            assert_eq!(s.position(), pos);
        }
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 0);
    }

    /// Two racing workers give the log many same-interval chunk
    /// boundaries (single-threaded runs coalesce into one Run event, so
    /// they cannot carry embedded checkpoints).
    const MT_PROG: &str = r"
        .data
        acc: .word 0
        .text
        .func main
            movi r1, 1
            spawn r2, worker, r1
            movi r1, 2
            spawn r3, worker, r1
            join r2
            join r3
            halt
        .endfunc
        .func worker
            movi r3, 200
        loop:
            la r1, acc
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, loop
            halt
        .endfunc
        ";

    #[test]
    fn container_checkpoints_seed_seeks() {
        let program = Arc::new(assemble(MT_PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(7),
            &mut LiveEnv::new(42),
            1_000_000,
            "container-seed",
        )
        .unwrap();
        let pinball = rec.pinball;
        // Reference: a checkpoint-free session seeked to the same target.
        let mut plain = DebugSession::new(Arc::clone(&program), pinball.clone());
        plain.seek_to(400);
        let want_acc = plain.read_symbol("acc");

        let container = pinplay::PinballContainer::with_checkpoints(pinball, &program, 64);
        assert!(!container.checkpoints.is_empty());
        let mut s = DebugSession::with_container(Arc::clone(&program), container);
        let (embedded, _) = s.checkpoint_positions();
        assert!(!embedded.is_empty());
        // A fresh session can seek deep into the region by restoring an
        // embedded checkpoint, without ever having replayed forward.
        let stop = s.seek_to(400);
        assert!(matches!(stop, StopReason::Stepped { .. }), "{stop:?}");
        assert_eq!(s.position(), 400);
        assert_eq!(s.read_symbol("acc"), want_acc, "state matches full replay");
        let m = s.seek_metrics();
        assert_eq!(m.seeks, 1);
        assert_eq!(m.container_restores, 1);
        assert_eq!(m.full_restarts, 0);
        assert!(
            m.instructions_replayed < 400,
            "only the tail chunk replays, got {}",
            m.instructions_replayed
        );
    }

    #[test]
    fn cont_hop_cache_serves_cyclic_reruns() {
        let mut s = session();
        let id = s.add_breakpoint(4, None);
        let first = s.cont();
        let x_first = s.read_symbol("x");
        assert_eq!(s.seek_metrics().hop_hits, 0);
        // Second iteration of the cyclic loop: restart + continue must be
        // served from the hop cache, identically.
        s.restart();
        let second = s.cont();
        assert_eq!(first, second);
        assert_eq!(s.read_symbol("x"), x_first);
        assert_eq!(s.seek_metrics().hop_hits, 1);
        assert_eq!(s.position(), 5);
        // Mutating the breakpoint set invalidates the cache.
        s.enable_breakpoint(id, false);
        s.restart();
        assert_eq!(s.cont(), StopReason::ReplayEnd);
        assert_eq!(s.seek_metrics().hop_hits, 1, "stale hops not reused");
    }

    #[test]
    fn reverse_continue_stops_by_the_forward_rule() {
        // Two breakpoints and a watchpoint all match the store at pc 4:
        // both directions report the lowest-id breakpoint.
        let mut s = session();
        let x = s.program().symbol("x").unwrap();
        let first = s.add_breakpoint(4, None);
        s.add_breakpoint(4, None);
        s.add_watchpoint(x);
        let forward = s.cont();
        assert_eq!(
            forward,
            StopReason::Breakpoint {
                id: first,
                tid: 0,
                pc: 4
            }
        );
        let at = s.position();
        s.cont(); // the second store, at pc 6, hits the watchpoint
        assert_eq!(s.reverse_continue(), forward);
        assert_eq!(s.position(), at);
    }

    #[test]
    fn reverse_then_breakpoint_forward() {
        let mut s = session();
        s.cont();
        s.reverse_continue();
        let bid = s.add_breakpoint(5, None);
        let stop = s.cont();
        assert_eq!(
            stop,
            StopReason::Breakpoint {
                id: bid,
                tid: 0,
                pc: 5
            }
        );
        assert_eq!(s.read_reg(0, Reg(1)).unwrap(), 4);
    }
}
