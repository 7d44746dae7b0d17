//! Interactive DrDebug command-line debugger.
//!
//! Exposes one of the built-in buggy workloads with the Maple active
//! scheduler, records the failing run as a pinball, and drops into a
//! gdb-style read–eval–print loop over the deterministic replay:
//!
//! ```text
//! cargo run --release -p bench --bin drdebug_cli -- fig5
//! (drdebug) continue
//! trap reproduced: assertion failed (tid 0, pc 7)
//! (drdebug) slice-failure
//! slice computed: 12 statement instances ...
//! (drdebug) help
//! ```
//!
//! Cases: `pbzip2`, `aget`, `mozilla` (Table 1), `fig5` (the paper's §3
//! example), `fig8` (the §5.2 save/restore example — no bug, breaks at
//! `compute_w` instead).
//!
//! `--save <path>` writes the recorded container to disk; `--pinball
//! <path>` replays a saved container instead of recording. Loading never
//! panics: a missing file exits cleanly, and a damaged container names
//! the broken chunk and salvages the intact prefix when possible.
//!
//! `--emit-test <name>` promotes the recording into a committed golden
//! fixture under `crates/bench/tests/corpus/<name>/` (container bytes +
//! expected failure slice + replay state hash) that the `corpus_golden`
//! integration test re-verifies on every run.
//!
//! `--tail <stream> --addr <host:port>` live-tails a streaming upload
//! another process is writing to a drserve server (see `drserve_cli
//! stream`): it polls the server's `Tail` op, printing chunk/event
//! progress — and, with `--slice-live`, slicing the absorbed prefix
//! mid-upload — then fetches the sealed pinball and drops into the
//! replay debugger. `needle` is accepted as the case name in this mode
//! (the workload `drserve_cli stream` uploads; match its `--iters`).

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use drdebug::{CommandInterpreter, DebugSession, LiveSession, LiveStop};
use drserve::{ClientError, ServeError, SliceAt};
use maple::{expose_iroot, ExposeOptions, IRoot};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{
    record_whole_program, Pinball, PinballContainer, PinballError, DEFAULT_CHECKPOINT_INTERVAL,
};
use slicer::SliceOptions;

fn record_case(name: &str) -> Result<(Arc<Program>, Pinball), String> {
    let bug_case = |case: workloads::BugCase| -> Result<(Arc<Program>, Pinball), String> {
        let exposure = case
            .expose()
            .ok_or_else(|| format!("{}: bug not exposable", case.name))?;
        eprintln!(
            "[drdebug] exposed `{}` via interleaving {}: {}",
            case.name, exposure.iroot, exposure.error
        );
        Ok((case.program, exposure.recording.pinball))
    };
    match name {
        "pbzip2" => bug_case(workloads::pbzip2_like()),
        "aget" => bug_case(workloads::aget_like()),
        "mozilla" => bug_case(workloads::mozilla_like()),
        "fig5" => {
            let program = workloads::fig5_race();
            let iroot: IRoot = workloads::fig5_exposing_iroot(&program);
            let exposure = expose_iroot(&program, iroot, ExposeOptions::default())
                .ok_or("fig5: race not exposable")?;
            eprintln!("[drdebug] exposed the fig5 race: {}", exposure.error);
            Ok((program, exposure.recording.pinball))
        }
        "fig8" => {
            let program = workloads::fig8_save_restore();
            let rec = record_whole_program(
                &program,
                &mut RoundRobin::new(8),
                &mut LiveEnv::with_inputs(0, [1]),
                100_000,
                "fig8",
            )
            .map_err(|e| e.to_string())?;
            Ok((program, rec.pinball))
        }
        other => Err(format!(
            "unknown case `{other}`; expected pbzip2|aget|mozilla|fig5|fig8"
        )),
    }
}

/// The case's program without recording anything — for replaying a
/// pinball loaded from disk.
fn case_program(name: &str) -> Result<Arc<Program>, String> {
    match name {
        "pbzip2" => Ok(workloads::pbzip2_like().program),
        "aget" => Ok(workloads::aget_like().program),
        "mozilla" => Ok(workloads::mozilla_like().program),
        "fig5" => Ok(workloads::fig5_race()),
        "fig8" => Ok(workloads::fig8_save_restore()),
        other => Err(format!(
            "unknown case `{other}`; expected pbzip2|aget|mozilla|fig5|fig8"
        )),
    }
}

/// Loads a pinball container from disk without ever panicking: a missing
/// file or unrecognizable blob is a clean error, and chunk-level damage
/// is reported by chunk through the typed lossy decoder, salvaging the
/// intact prefix when there is one.
fn load_container(path: &str) -> Result<PinballContainer, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read pinball `{path}`: {e}"))?;
    match PinballContainer::from_bytes(&bytes) {
        Ok(container) => Ok(container),
        Err(first) => {
            let lossy = PinballContainer::from_bytes_lossy(&bytes)
                .map_err(|e| format!("pinball `{path}` is unreadable: {e}"))?;
            match &lossy.damage {
                Some(PinballError::Chunk {
                    chunk,
                    kind,
                    reason,
                }) => eprintln!(
                    "[drdebug] pinball `{path}`: chunk {chunk} ({kind}) is damaged: {reason}"
                ),
                Some(other) => eprintln!("[drdebug] pinball `{path}` is damaged: {other}"),
                None => eprintln!("[drdebug] pinball `{path}` failed to load: {first}"),
            }
            if lossy.events_recovered == 0 {
                return Err(format!(
                    "pinball `{path}`: nothing salvageable ({} events lost)",
                    lossy.events_expected
                ));
            }
            eprintln!(
                "[drdebug] continuing with the salvaged prefix: {}/{} events intact",
                lossy.events_recovered, lossy.events_expected
            );
            Ok(lossy.container)
        }
    }
}

/// Live-tails a stream another process is uploading to a drserve server:
/// polls `Tail` until the stream seals — optionally slicing the absorbed
/// prefix on each poll — then fetches the published pinball for replay.
fn tail_mode(
    program: Arc<Program>,
    stream: u64,
    addr: &str,
    poll_ms: u64,
    slice_live: bool,
) -> Result<(Arc<Program>, PinballContainer), String> {
    let mut client =
        drserve::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut last = (u32::MAX, u64::MAX);
    let digest = loop {
        match client.tail(stream) {
            Ok(t) => {
                if (t.chunks, t.events) != last {
                    last = (t.chunks, t.events);
                    let expected = if t.expected_events == 0 {
                        "?".to_string()
                    } else {
                        t.expected_events.to_string()
                    };
                    eprintln!(
                        "[tail] stream {stream}: {} chunks, {}/{expected} events, \
                         {} instructions{}",
                        t.chunks,
                        t.events,
                        t.instructions,
                        if t.sealed { ", sealed" } else { "" },
                    );
                    if slice_live && t.events > 0 && !t.sealed {
                        // Slices of the absorbed prefix are served from an
                        // incrementally-maintained index while the upload
                        // is still in flight.
                        match client.slice_stream(stream, SliceAt::Failure, SliceOptions::default())
                        {
                            Ok(reply) => eprintln!(
                                "[tail] live slice of the absorbed prefix: {} records ({} us)",
                                reply.slice.len(),
                                reply.micros
                            ),
                            Err(e) => eprintln!("[tail] live slice unavailable: {e}"),
                        }
                    }
                }
                if t.sealed {
                    break t.digest.ok_or("sealed stream reported no digest")?;
                }
            }
            Err(ClientError::Server(ServeError::UnknownStream { .. })) => {
                eprintln!("[tail] stream {stream} not started yet; waiting");
            }
            Err(e) => return Err(format!("tail: {e}")),
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    };
    eprintln!("[tail] stream sealed as {digest}; fetching for replay");
    let bytes = client.fetch(digest).map_err(|e| format!("fetch: {e}"))?;
    let container = PinballContainer::from_bytes(&bytes)
        .map_err(|e| format!("fetched container does not parse: {e}"))?;
    Ok((program, container))
}

/// `drdebug_cli migrate <in> <out>`: upgrade an older container on disk
/// to v4 in place of debugging. The digest is format-independent, so the
/// upgraded file stays content-addressed to the same recording; the CLI
/// prints both sizes and the digest so the caller can verify nothing
/// drifted. Takes exactly two paths and no flags.
fn migrate_mode(args: &[String]) -> Result<(), String> {
    let (input, output) = match args.get(1..) {
        Some([i, o]) if !i.starts_with('-') && !o.starts_with('-') => (i.as_str(), o.as_str()),
        _ => return Err("usage: drdebug_cli migrate <in> <out>".to_string()),
    };
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read pinball `{input}`: {e}"))?;
    let from = pinplay::detect_version(&bytes);
    let upgraded =
        pinplay::migrate(&bytes).map_err(|e| format!("cannot migrate `{input}`: {e}"))?;
    let container = PinballContainer::from_bytes(&upgraded)
        .map_err(|e| format!("migrated container does not parse: {e}"))?;
    std::fs::write(output, &upgraded)
        .map_err(|e| format!("cannot write pinball `{output}`: {e}"))?;
    eprintln!(
        "[drdebug] migrated `{input}` ({from}, {} bytes) -> `{output}` (v4, {} bytes), digest {}",
        bytes.len(),
        upgraded.len(),
        container.digest()
    );
    Ok(())
}

/// The value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .zip(args.iter().skip(1))
        .find(|(f, _)| f.as_str() == flag)
        .map(|(_, v)| v.as_str())
}

/// Live-capture mode: run the case's program live with record on/off
/// commands; on `record off` (or a trap) drop into the replay debugger.
fn live_mode(program: Arc<Program>) -> Option<(Arc<Program>, Pinball)> {
    let mut live = LiveSession::new(
        Arc::clone(&program),
        RoundRobin::new(8),
        LiveEnv::new(0),
        "live",
    );
    eprintln!(
        "[drdebug --live] commands: break <pc> | delete <pc> | continue | record on | record off | state | quit"
    );
    let stdin = io::stdin();
    loop {
        print!("(live) ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        let line = line.trim();
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("break"), Some(pc)) => {
                if let Ok(pc) = pc.parse() {
                    live.add_breakpoint(pc);
                    println!("live breakpoint at pc {pc}");
                } else {
                    println!("bad pc");
                }
            }
            (Some("delete"), Some(pc)) => {
                if let Ok(pc) = pc.parse::<u32>() {
                    println!("removed: {}", live.remove_breakpoint(pc));
                }
            }
            (Some("continue"), _) | (Some("c"), _) => {
                let stop = live.cont(10_000_000);
                println!("stopped: {stop:?}");
                if matches!(stop, LiveStop::Trapped(_)) {
                    if let Some(pb) = live.captured().cloned() {
                        println!("trap while recording: pinball finalised; switching to replay");
                        return Some((program, pb));
                    }
                }
            }
            (Some("record"), Some("on")) => {
                println!("recording: {}", live.record_on());
            }
            (Some("record"), Some("off")) => match live.record_off() {
                Some(pb) => {
                    println!(
                        "captured {} instructions; switching to replay debugger",
                        pb.logged_instructions()
                    );
                    return Some((program, pb));
                }
                None => println!("not recording"),
            },
            (Some("state"), _) => {
                for t in 0..live.exec().num_threads() as u32 {
                    let th = live.exec().thread(t);
                    println!("t{t}: pc={} runnable={}", th.pc, th.is_runnable());
                }
            }
            (Some("quit"), _) | (Some("exit"), _) => return None,
            (Some(other), _) => println!("unknown live command `{other}`"),
            (None, _) => {}
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(case) = args.first() else {
        eprintln!(
            "usage: drdebug_cli <pbzip2|aget|mozilla|fig5|fig8> [--live] [--ckpt <n>] \
             [--pinball <path>] [--save <path>] [--emit-test <name>] [--cmd '<command>']...\n\
             \x20      drdebug_cli <case|needle> --tail <stream> [--addr <host:port>] \
             [--poll-ms <n>] [--slice-live] [--iters <n>]\n\
             \x20      drdebug_cli migrate <in> <out>"
        );
        std::process::exit(2);
    };
    if case == "migrate" {
        if let Err(e) = migrate_mode(&args) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (program, container) = if let Some(stream) = flag_value(&args, "--tail") {
        // Live-tail a stream another process is uploading, then debug it.
        let Ok(stream) = stream.parse::<u64>() else {
            eprintln!("error: --tail takes a numeric stream id");
            std::process::exit(2);
        };
        let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7070");
        let poll_ms = flag_value(&args, "--poll-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        let program = if case == "needle" {
            // The workload `drserve_cli stream` uploads; the program is
            // parameterized by the writer's --iters.
            let iters = flag_value(&args, "--iters")
                .and_then(|v| v.parse().ok())
                .unwrap_or(400);
            bench::exp::four_thread_needle(iters)
        } else {
            match case_program(case) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        };
        let slice_live = args.iter().any(|a| a == "--slice-live");
        match tail_mode(program, stream, addr, poll_ms, slice_live) {
            Ok(pc) => pc,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(path) = flag_value(&args, "--pinball") {
        // Replay a previously saved container: no recording. Missing and
        // damaged files exit cleanly with the damage named by chunk.
        let program = match case_program(case) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        match load_container(path) {
            Ok(container) => (program, container),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let (program, pinball) = if args.iter().any(|a| a == "--live") {
            // Live mode uses the case's program but captures interactively.
            let program = match record_case(case) {
                Ok((p, _)) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            match live_mode(program) {
                Some(captured) => captured,
                None => return,
            }
        } else {
            match record_case(case) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        };
        eprintln!(
            "[drdebug] pinball: {} instructions, {} bytes compressed",
            pinball.logged_instructions(),
            pinball.size_bytes().expect("pinball serializes")
        );
        // Embed checkpoints every `--ckpt N` retired instructions (default
        // DEFAULT_CHECKPOINT_INTERVAL) so `seek` restores in O(chunk).
        let interval = flag_value(&args, "--ckpt")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_CHECKPOINT_INTERVAL);
        let container = PinballContainer::with_checkpoints(pinball, &program, interval);
        eprintln!(
            "[drdebug] container: {} embedded checkpoints (interval {interval})",
            container.checkpoints.len()
        );
        (program, container)
    };
    if let Some(path) = flag_value(&args, "--save") {
        match container.save(std::path::Path::new(path)) {
            Ok(()) => eprintln!("[drdebug] container saved to `{path}`"),
            Err(e) => {
                eprintln!("error: cannot save pinball to `{path}`: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(name) = flag_value(&args, "--emit-test") {
        // Promote the recording into a committed golden fixture that the
        // corpus_golden test re-verifies: container bytes, expected
        // failure slice, and the replayer's end-of-log state digest.
        if bench::corpus::corpus_program(case).is_none() {
            eprintln!(
                "error: `{case}` recordings cannot be re-verified offline; \
                 corpus cases: pbzip2|aget|mozilla|fig5|fig8"
            );
            std::process::exit(1);
        }
        match bench::corpus::emit_fixture(name, case, &program, &container) {
            Ok(dir) => {
                eprintln!("[drdebug] golden fixture written to `{}`", dir.display());
                return;
            }
            Err(e) => {
                eprintln!("error: cannot emit fixture `{name}`: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "[drdebug] replaying {} instructions (digest {})",
        container.pinball.logged_instructions(),
        container.digest()
    );
    let mut dbg = CommandInterpreter::new(DebugSession::with_container(program, container));

    // Scripted mode: --cmd flags run in order, then exit.
    let cmds: Vec<&String> = args
        .iter()
        .zip(args.iter().skip(1))
        .filter(|(flag, _)| flag.as_str() == "--cmd")
        .map(|(_, cmd)| cmd)
        .collect();
    if !cmds.is_empty() {
        for cmd in cmds {
            println!("(drdebug) {cmd}");
            println!("{}", dbg.execute(cmd));
        }
        return;
    }

    // Interactive REPL over stdin.
    eprintln!("[drdebug] type `help` for commands, `quit` to exit");
    let stdin = io::stdin();
    loop {
        print!("(drdebug) ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        if line.is_empty() {
            continue;
        }
        println!("{}", dbg.execute(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("drdebug_cli_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn missing_pinball_path_is_a_clean_error() {
        let err = load_container("/nonexistent/no-such-pinball.drpb").unwrap_err();
        assert!(err.contains("cannot read pinball"), "{err}");
    }

    #[test]
    fn unrecognizable_blob_is_a_clean_error() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"this is not a pinball at all").unwrap();
        let err = load_container(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("unreadable"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn migrate_mode_upgrades_v3_files_to_v4() {
        // A committed v3 save (crates/pinplay/tests/fixtures/README.md).
        let v3: &[u8] = include_bytes!("../../../pinplay/tests/fixtures/fuzz_v3.drpb");
        let expected = PinballContainer::from_bytes(v3).expect("v3 fixture loads");
        let input = temp_path("migrate-in");
        let output = temp_path("migrate-out");
        std::fs::write(&input, v3).unwrap();
        let (i, o) = (input.to_str().unwrap(), output.to_str().unwrap());

        // A flag anywhere, or a wrong path count, is a usage error that
        // writes nothing — not even to a path named after a flag's value.
        for bad in [
            vec!["migrate", i, o, "--to", "v4"],
            vec!["migrate", i, "--to", "v4", o],
            vec!["migrate", "--to", "v4", i, o],
            vec!["migrate", i],
            vec!["migrate", i, o, "extra"],
        ] {
            let err = migrate_mode(&strings(&bad)).expect_err("rejects the arguments");
            assert!(
                err.starts_with("usage: drdebug_cli migrate <in> <out>"),
                "{err}"
            );
            assert!(!output.exists(), "{bad:?} wrote {}", output.display());
        }

        migrate_mode(&strings(&["migrate", i, o])).expect("migrates");
        let upgraded = std::fs::read(&output).unwrap();
        assert_eq!(
            upgraded,
            expected.to_bytes().unwrap(),
            "migrate writes the direct v4 save"
        );
        let loaded = PinballContainer::from_bytes(&upgraded).expect("v4 output loads");
        assert_eq!(loaded, expected, "migration preserves the container");
        assert_eq!(loaded.digest(), expected.digest(), "digest is format-free");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn damaged_container_salvages_the_intact_prefix() {
        let program = workloads::fig8_save_restore();
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::with_inputs(0, [1]),
            100_000,
            "cli-test",
        )
        .expect("records");
        let container = PinballContainer::with_checkpoints(rec.pinball, &program, 64);
        let mut bytes = container.to_bytes().expect("serializes");
        let cut = bytes.len() * 3 / 4;
        bytes.truncate(cut); // tail damage: prefix chunks stay intact
        let path = temp_path("damaged");
        std::fs::write(&path, &bytes).unwrap();
        let salvaged = load_container(path.to_str().unwrap()).expect("prefix salvaged");
        assert!(!salvaged.pinball.events.is_empty());
        assert!(salvaged.pinball.events.len() <= container.pinball.events.len());
        std::fs::remove_file(&path).ok();
    }
}
