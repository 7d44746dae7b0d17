//! Answer checking and bookkeeping shared by the workloads.
//!
//! Every timed answer is reduced to a hash (of its canonical wire bytes
//! for a served slice, order-independent for a local one) and checked,
//! after the timed window, against a reference computed untimed by a
//! separate local [`DebugSession`] over the original (never encoded)
//! recording. That reference is itself checked against
//! `compute_slice_naive` on a seeded sample of criteria.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use drdebug::DebugSession;
use drserve::WireSlice;
use minivm::{NullTool, Program};
use pinplay::{Pinball, Replayer};
use slicer::{compute_slice_naive, Criterion, Slice, SliceOptions};

use crate::programs::Rng;
use crate::Ctx;

/// Mismatches beyond this many are counted but not described.
const MAX_NOTES: usize = 8;

/// Operations attempted, failed and answered wrongly, with the first few
/// failures described.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// An operation that errored or was shed.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.note(what);
    }

    /// An answer that must hold; a false one is a wrong answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            self.failed += 1;
            self.note(what);
        }
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what());
        }
    }

    /// Adds another tally's counts (and notes, while there is room).
    pub fn absorb_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in &other.notes {
            self.note(|| n.clone());
        }
    }

    /// Moves the counts and notes into a run's outcome, with `failed_frac`
    /// (failed, shed and wrong over attempted) among its metrics.
    pub fn finish(self, mut out: crate::report::Outcome) -> crate::report::Outcome {
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.wrong = self.wrong;
        out.metrics.push(crate::report::metric(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
        ));
        out.notes.splice(0..0, self.notes);
        out
    }
}

/// SplitMix64's finalizer: a cheap, well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds every word written into one mixed value.
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x);
    }
}

fn mixed<T: Hash>(value: &T) -> u64 {
    let mut h = Mix(0x2545_f491_4f6c_dd1d);
    value.hash(&mut h);
    h.finish()
}

/// The identity of a locally computed slice: an order-independent hash
/// of its criterion, records and edges. Linear in the slice, unlike the
/// sorted wire form, so even whole-region slices are checked cheaply.
pub fn answer(slice: &Slice) -> u64 {
    let sum = |it: &mut dyn Iterator<Item = u64>| it.fold(0u64, |a, x| a.wrapping_add(mix(x)));
    let records = sum(&mut slice.records.iter().copied());
    let data = sum(&mut slice
        .data_edges
        .iter()
        .map(|e| mixed(&(e.user, e.def, e.key))));
    let control = sum(&mut slice.control_edges.iter().map(mixed));
    let criterion = match slice.criterion {
        Criterion::Record { id } => mixed(&(0u8, id)),
        Criterion::Value { id, key } => mixed(&(1u8, id, key)),
    };
    mixed(&(criterion, records, data, control, slice.records.len()))
}

/// The identity of a slice in canonical wire form: its bytes, hashed —
/// what "byte-identical to a local computation" means for server replies.
pub fn wire_answer(w: &WireSlice) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(&w.canonical_bytes());
    h.finish()
}

/// Records the slicer's and the session's own per-layer numbers for the
/// slice `session` just answered (traced runs only).
pub fn sample_slice(ctx: &Ctx, session: &DebugSession) {
    if !ctx.tracer.is_on() {
        return;
    }
    let Some(m) = session.metrics() else { return };
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    if !m.warm_index {
        ctx.tracer.sample("slicer.collect.ms", ms(m.collect.wall));
        ctx.tracer
            .sample("slicer.collect.records", m.collect.records as f64);
        ctx.tracer.sample("slicer.merge.ms", ms(m.merge.wall));
        ctx.tracer
            .sample("slicer.summarize.ms", ms(m.summarize.wall));
        ctx.tracer.sample("slicer.index.ms", ms(m.index_build.wall));
        ctx.tracer
            .sample("slicer.index.edges", m.index_build.records as f64);
    }
    ctx.tracer.sample("slicer.traverse.ms", ms(m.traverse.wall));
    ctx.tracer
        .sample("drdebug.index_warm", if m.warm_index { 1.0 } else { 0.0 });
}

/// A reference over one recording: a local session over the original
/// pinball, checked against the naive slicer on a sample of criteria.
pub struct Reference {
    session: DebugSession,
    /// The criteria it was built with, whose traversal volume is recorded
    /// (a fixed set, so `slicer.traverse.records` repeats exactly).
    fixed: HashSet<u64>,
}

impl Reference {
    /// Builds the reference session (sampling its cold build), replays
    /// the whole region once (the full-replay cost slice pinballs are
    /// measured against), and checks `naive_checks` seeded criteria of
    /// `criteria` (non-empty) against the naive slicer.
    pub fn new(
        ctx: &Ctx,
        program: &Arc<Program>,
        pinball: &Pinball,
        criteria: &[Criterion],
        naive_checks: usize,
        rng: &mut Rng,
        tally: &mut Tally,
    ) -> Reference {
        {
            let _span = ctx.tracer.span("pinplay.replay.region");
            Replayer::new(Arc::clone(program), pinball).run(&mut NullTool);
        }
        let mut session = {
            let _span = ctx.tracer.span("drdebug.open");
            DebugSession::new(Arc::clone(program), pinball.clone())
        };
        let opts = SliceOptions::default();
        {
            let _span = ctx.tracer.span("drdebug.slice");
            session.slice_criterion(criteria[0], opts.clone());
        }
        sample_slice(ctx, &session);
        for _ in 0..naive_checks {
            let c = criteria[rng.below(criteria.len())];
            let indexed = WireSlice::from_slice(&session.slice_criterion(c, opts.clone()));
            let trace = session.slicer_ref().expect("collected by the first slice");
            let naive = WireSlice::from_slice(&compute_slice_naive(
                trace.trace(),
                c,
                trace.pairs(),
                opts.clone(),
            ));
            tally.check(
                (
                    &indexed.records,
                    &indexed.data_edges,
                    &indexed.control_edges,
                ) == (&naive.records, &naive.data_edges, &naive.control_edges),
                || format!("indexed slice at {c:?} differs from compute_slice_naive"),
            );
        }
        Reference {
            session,
            fixed: criteria.iter().map(|c| c.record_id()).collect(),
        }
    }

    /// The reference slice at `criterion`.
    fn slice(&mut self, ctx: &Ctx, criterion: Criterion) -> Slice {
        let slice = self
            .session
            .slice_criterion(criterion, SliceOptions::default());
        sample_slice(ctx, &self.session);
        if self.fixed.remove(&criterion.record_id()) {
            ctx.tracer.sample(
                "slicer.traverse.records",
                slice.stats.records_scanned as f64,
            );
        }
        slice
    }

    /// The reference answer for `criterion`, as [`answer`] identifies it.
    pub fn answer(&mut self, ctx: &Ctx, criterion: Criterion) -> u64 {
        answer(&self.slice(ctx, criterion))
    }

    /// The reference answer for `criterion` in canonical wire form.
    pub fn wire_answer(&mut self, ctx: &Ctx, criterion: Criterion) -> u64 {
        wire_answer(&WireSlice::from_slice(&self.slice(ctx, criterion)))
    }

    /// The reference relog of `criterion`: the slice pinball's digest and
    /// its instruction count.
    pub fn relog(&mut self, ctx: &Ctx, criterion: Criterion) -> (pinplay::PinballDigest, u64) {
        let (_, report) = {
            let _span = ctx.tracer.span("pinplay.relog");
            self.session
                .relog_criterion(criterion, SliceOptions::default())
        };
        sample_kept(ctx, &report);
        (report.digest, report.kept)
    }
}

/// Records the share of the region a relog kept (traced runs only).
pub fn sample_kept(ctx: &Ctx, report: &drdebug::RelogReport) {
    let region = (report.kept + report.excluded).max(1);
    ctx.tracer.sample(
        "pinplay.relog.kept_frac",
        report.kept as f64 / region as f64,
    );
}
