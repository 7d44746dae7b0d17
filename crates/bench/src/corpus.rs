//! Golden-fixture corpus: promoting a deterministic recording into a
//! committed regression fixture.
//!
//! A fixture directory under `crates/bench/tests/corpus/<name>/` holds
//! three files:
//!
//! - `pinball.drpb` — the recorded container, byte for byte;
//! - `slice.bin` — the canonical wire encoding of the failure slice
//!   ([`WireSlice::canonical_bytes`]), computed exactly the way drserve's
//!   streaming path computes it;
//! - `state.txt` — `key=value` lines naming the source case, the content
//!   digest, the retired-instruction count, the replayer's end-of-log
//!   [`state digest`](Replayer::state_digest), and an FNV-1a fold of the
//!   slice bytes.
//!
//! `drdebug_cli <case> --emit-test <name>` writes one; the
//! `corpus_golden` integration test replays and re-slices every committed
//! fixture and fails on any byte that moved. Because replay and slicing
//! are deterministic, a fixture pins three independent layers at once:
//! the container codec (the committed bytes must still parse), the
//! replayer (the state digest must come back), and the slicer (the
//! canonical slice bytes must come back).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use drserve::WireSlice;
use minivm::{NullTool, Program};
use pinplay::{PinballContainer, Replayer};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, SliceOptions, SliceSession, SlicerOptions,
};

/// Root of the committed corpus: `crates/bench/tests/corpus`.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// FNV-1a over `bytes` — the same fold [`Replayer::state_digest`] uses,
/// here applied to fixture artifacts so `state.txt` can pin them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The program a committed fixture's `case=` line refers to. Fixtures
/// only name cases whose program is reconstructible without recording.
pub fn corpus_program(case: &str) -> Option<Arc<Program>> {
    match case {
        "pbzip2" => Some(workloads::pbzip2_like().program),
        "aget" => Some(workloads::aget_like().program),
        "mozilla" => Some(workloads::mozilla_like().program),
        "fig5" => Some(workloads::fig5_race()),
        "fig8" => Some(workloads::fig8_save_restore()),
        _ => None,
    }
}

/// Replays the container to the end of its log and returns the replay
/// state digest plus the retired-instruction count.
pub fn replay_state(program: &Arc<Program>, container: &PinballContainer) -> (u64, u64) {
    let mut replayer = Replayer::new(Arc::clone(program), &container.pinball);
    replayer.run(&mut NullTool);
    (replayer.state_digest(), replayer.replayed_instructions())
}

/// The canonical failure-slice bytes for a container: collect, index,
/// slice at the failure record, and encode canonically. An empty trace
/// yields empty bytes.
pub fn expected_slice_bytes(program: &Arc<Program>, container: &PinballContainer) -> Vec<u8> {
    let session = SliceSession::collect(
        Arc::clone(program),
        &container.pinball,
        SlicerOptions::default(),
    );
    let Some(id) = session.failure_record().map(|r| r.id) else {
        return Vec::new();
    };
    let options = SliceOptions::default();
    let index = DepIndex::build(session.trace(), session.pairs(), &options);
    let slice = compute_slice_indexed(&index, Criterion::Record { id });
    WireSlice::from_slice(&slice).canonical_bytes()
}

/// Writes the three fixture files for `name` under `base`, recording
/// `case` as the program the verifier should rebuild. Returns the
/// fixture directory.
///
/// # Errors
///
/// Any filesystem error, or a container that fails to serialize.
pub fn emit_fixture_in(
    base: &Path,
    name: &str,
    case: &str,
    program: &Arc<Program>,
    container: &PinballContainer,
) -> io::Result<PathBuf> {
    let dir = base.join(name);
    fs::create_dir_all(&dir)?;
    let bytes = container
        .to_bytes()
        .map_err(|e| io::Error::other(format!("container does not serialize: {e}")))?;
    fs::write(dir.join("pinball.drpb"), &bytes)?;
    let slice = expected_slice_bytes(program, container);
    fs::write(dir.join("slice.bin"), &slice)?;
    let (state_digest, instructions) = replay_state(program, container);
    let state = format!(
        "name={name}\ncase={case}\ndigest={}\ninstructions={instructions}\n\
         state_digest=0x{state_digest:016x}\nslice_fnv=0x{:016x}\n",
        container.digest(),
        fnv1a(&slice),
    );
    fs::write(dir.join("state.txt"), state)?;
    Ok(dir)
}

/// [`emit_fixture_in`] into the committed [`corpus_dir`].
///
/// # Errors
///
/// Any filesystem error, or a container that fails to serialize.
pub fn emit_fixture(
    name: &str,
    case: &str,
    program: &Arc<Program>,
    container: &PinballContainer,
) -> io::Result<PathBuf> {
    emit_fixture_in(&corpus_dir(), name, case, program, container)
}

/// One `key=value` line from a fixture's `state.txt`.
fn state_field<'a>(state: &'a str, key: &str) -> Result<&'a str, String> {
    state
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("state.txt is missing `{key}=`"))
}

/// Recomputes everything for the fixture at `base/name` — parse the
/// committed container, replay it, re-slice it — and returns an error
/// naming the first artifact that no longer matches.
///
/// # Errors
///
/// A human-readable description of the first mismatch: unreadable file,
/// unknown case, digest/instruction/state/slice drift.
pub fn verify_fixture_in(base: &Path, name: &str) -> Result<(), String> {
    let dir = base.join(name);
    let read = |file: &str| {
        fs::read(dir.join(file)).map_err(|e| format!("{name}: cannot read {file}: {e}"))
    };
    let state = String::from_utf8(read("state.txt")?)
        .map_err(|_| format!("{name}: state.txt is not UTF-8"))?;
    let case = state_field(&state, "case")?;
    let program =
        corpus_program(case).ok_or_else(|| format!("{name}: unknown corpus case `{case}`"))?;
    let bytes = read("pinball.drpb")?;
    let container = PinballContainer::from_bytes(&bytes)
        .map_err(|e| format!("{name}: committed container no longer parses: {e}"))?;
    if format!("{}", container.digest()) != state_field(&state, "digest")? {
        return Err(format!("{name}: container digest drifted"));
    }
    let (state_digest, instructions) = replay_state(&program, &container);
    if instructions.to_string() != state_field(&state, "instructions")? {
        return Err(format!(
            "{name}: replay retired {instructions} instructions, \
             state.txt says {}",
            state_field(&state, "instructions")?
        ));
    }
    if format!("0x{state_digest:016x}") != state_field(&state, "state_digest")? {
        return Err(format!("{name}: replay state digest drifted"));
    }
    let expected = read("slice.bin")?;
    let recomputed = expected_slice_bytes(&program, &container);
    if recomputed != expected {
        return Err(format!(
            "{name}: failure slice drifted ({} bytes recomputed vs {} committed)",
            recomputed.len(),
            expected.len()
        ));
    }
    if format!("0x{:016x}", fnv1a(&expected)) != state_field(&state, "slice_fnv")? {
        return Err(format!(
            "{name}: slice.bin does not match its state.txt hash"
        ));
    }
    Ok(())
}
