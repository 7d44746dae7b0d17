//! The debugger's stepping, reverse and inspection ops over the wire.
//!
//! Each test runs one op sequence twice, on a local [`DebugSession`] and
//! on a pooled server session over the loopback transport, and asserts
//! that the two agree after every step: stop reasons, positions, every
//! register of every thread, memory, thread lists, slices and relog
//! digests. Requests the session cannot answer are typed errors that
//! leave the shard serving.

use std::sync::Arc;

use drdebug::{DebugSession, StopReason};
use drserve::{
    Client, ClientError, LoopbackStream, ServeConfig, ServeError, Server, SessionId, SliceAt,
    WireSlice, WireStop,
};
use minivm::{assemble, LiveEnv, Loc, Program, Reg, RoundRobin};
use pinplay::{record_whole_program, PinballContainer};
use slicer::{Criterion, LocKey, RecordId, SliceOptions};

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
        halt            ; 5
    .endfunc
    ";

/// A worker stores a counter to the shared word `x` in a loop while
/// `main` runs a private loop that never touches `x`.
const SHARED_COUNTER: &str = r"
    .data
    x: .word 0
    .text
    .func main
        movi r1, 0
        spawn r2, worker, r1
        movi r3, 100
    spin:
        subi r3, r3, 1
        bgti r3, 0, spin
        join r2
        halt
    .endfunc
    .func worker
        la r1, x
        movi r2, 0
        movi r3, 100
    again:
        addi r2, r2, 1
        store r2, r1, 0
        subi r3, r3, 1
        bgti r3, 0, again
        halt
    .endfunc
    ";

type Remote = Client<LoopbackStream>;

/// A local session and a server session over the same recording.
struct Twin {
    program: Arc<Program>,
    local: DebugSession,
    client: Remote,
    session: SessionId,
    server: Server,
}

impl Twin {
    fn new(config: ServeConfig) -> Twin {
        Twin::of(PROG, 8, config)
    }

    /// A twin over a whole-program recording of `src` under round-robin
    /// with `quantum`.
    fn of(src: &str, quantum: u64, config: ServeConfig) -> Twin {
        let program = Arc::new(assemble(src).expect("assembles"));
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(quantum),
            &mut LiveEnv::new(0),
            100_000,
            "debug-ops",
        )
        .expect("records");
        let server = Server::new(config);
        let mut client = server.loopback_client();
        let up = client.upload(&program, &rec.pinball).expect("upload");
        let session = client.open(up.digest).expect("open");
        let local = DebugSession::new(Arc::clone(&program), rec.pinball);
        Twin {
            program,
            local,
            client,
            session,
            server,
        }
    }

    fn x(&self) -> u64 {
        self.program.symbol("x").expect("x is a data symbol")
    }

    /// Moves both sessions, asserts the same stop, position and state,
    /// and returns the stop.
    fn step(
        &mut self,
        local: impl FnOnce(&mut DebugSession) -> StopReason,
        remote: impl FnOnce(&mut Remote, SessionId) -> Result<(WireStop, u64), ClientError>,
    ) -> WireStop {
        let want = WireStop::from(local(&mut self.local));
        let (got, position) = remote(&mut self.client, self.session).expect("server stops");
        assert_eq!(got, want, "stop reason");
        assert_eq!(position, self.local.position(), "position");
        self.assert_same_state();
        got
    }

    /// Thread list, every register of every thread, and `x` agree.
    fn assert_same_state(&mut self) {
        let threads = self.client.threads(self.session).expect("threads");
        assert_eq!(threads, self.local.threads(), "thread list");
        for (tid, _, _) in threads {
            for r in 0..minivm::isa::NUM_REGS as u8 {
                let got = self.client.read_reg(self.session, tid, Reg(r));
                assert_eq!(got.ok(), self.local.read_reg(tid, Reg(r)), "t{tid}:r{r}");
            }
        }
        let x = self.x();
        let got = self.client.read_mem(self.session, x).expect("read x");
        assert_eq!(got, self.local.read_mem(x), "x");
    }

    /// The failure criterion both sides slice and relog at.
    fn failure(&mut self) -> Criterion {
        let id = self.local.slicer().failure_record().expect("trace").id;
        Criterion::Record { id }
    }
}

fn bad_request<T: std::fmt::Debug>(result: Result<T, ClientError>) -> String {
    match result {
        Err(ClientError::Server(ServeError::BadRequest { reason })) => reason,
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn breakpoint_stop_and_inspection_match_a_local_session() {
    let mut t = Twin::new(ServeConfig::default());
    let id = t.local.add_breakpoint(2, None);
    let remote_id = t.client.add_breakpoint(t.session, 2, None).expect("break");
    assert_eq!(remote_id, id);
    let stop = t.step(DebugSession::cont, Remote::run);
    assert_eq!(stop, WireStop::Breakpoint { id, tid: 0, pc: 2 });
    let x = t.x();
    assert_eq!(t.client.read_mem(t.session, x).expect("read x"), 5);
    assert_eq!(t.client.read_reg(t.session, 0, Reg(1)).expect("r1"), 5);
    assert_eq!(t.step(DebugSession::cont, Remote::run), WireStop::ReplayEnd);
}

#[test]
fn stepping_reverse_stepping_and_restart_match_a_local_session() {
    let mut t = Twin::new(ServeConfig::default());
    t.step(DebugSession::stepi, Remote::stepi);
    t.step(DebugSession::stepi, Remote::stepi);
    let back = t.step(DebugSession::reverse_stepi, Remote::reverse_stepi);
    assert_eq!(back, WireStop::Stepped { tid: 0, pc: 0 });
    // Restart is a seek to the region entry.
    let restarted = t.step(
        |s| {
            s.restart();
            StopReason::ReplayStart
        },
        |c, session| c.seek(session, 0),
    );
    assert_eq!(restarted, WireStop::ReplayStart);
    assert_eq!(t.client.threads(t.session).expect("threads").len(), 1);
}

#[test]
fn failure_slice_and_slice_pinball_match_a_local_session() {
    let mut t = Twin::new(ServeConfig::default());
    t.step(DebugSession::cont, Remote::run);
    let criterion = t.failure();
    let slice = t.local.slice_criterion(criterion, SliceOptions::default());
    let reply = t
        .client
        .compute_slice(t.session, SliceAt::Failure, SliceOptions::default())
        .expect("slice");
    assert!(!reply.slice.is_empty());
    assert_eq!(
        reply.slice.canonical_bytes(),
        WireSlice::from_slice(&slice).canonical_bytes()
    );
    // A slice pinball is a relog plus a fetch.
    let index = t.local.save_slice(slice);
    let want = t.local.make_slice_pinball(index);
    let relog = t
        .client
        .relog(t.session, SliceAt::Failure, SliceOptions::default())
        .expect("relog");
    let bytes = t.client.fetch(relog.digest).expect("fetch");
    let got = PinballContainer::from_bytes(&bytes).expect("loads").pinball;
    assert!(got.meta.is_slice);
    assert_eq!(got, want);
    // A slice of a record the trace lacks has no pinball on either side.
    let outside = Criterion::Record { id: RecordId::MAX };
    assert!(t.local.slicer().trace().record(RecordId::MAX).is_none());
    bad_request(t.client.relog(
        t.session,
        SliceAt::Criterion { criterion: outside },
        SliceOptions::default(),
    ));
}

#[test]
fn a_value_slice_here_matches_a_local_session_and_read_mem() {
    let mut t = Twin::of(SHARED_COUNTER, 3, ServeConfig::default());
    let x = t.x();
    // The stop: main's 40th pass through its loop, with the worker
    // mid-way through its stores to `x`.
    let spin = t.program.label("spin").expect("main's loop");
    let mut probe = DebugSession::new(Arc::clone(&t.program), t.local.pinball().clone());
    probe.add_breakpoint(spin, Some(0));
    for _ in 0..40 {
        probe.cont();
    }
    let stop = probe.position();
    t.step(|s| s.seek_to(stop), |c, session| c.seek(session, stop));

    let key = LocKey::Mem(x);
    let local = t.local.slice_here(key).expect("a local value slice");
    let reply = t
        .client
        .compute_slice(
            t.session,
            SliceAt::Here { key: Some(key) },
            SliceOptions::default(),
        )
        .expect("slice");
    assert_eq!(
        reply.slice.canonical_bytes(),
        WireSlice::from_slice(&local).canonical_bytes()
    );
    let id = reply.slice.criterion.record_id();
    let defs: Vec<RecordId> = reply
        .slice
        .data_edges
        .iter()
        .filter(|&&(user, _, k)| user == id && k == key)
        .map(|&(_, def, _)| def)
        .collect();
    assert_eq!(defs.len(), 1, "one reaching write of x: {defs:?}");
    let written = t
        .local
        .slicer()
        .trace()
        .record(defs[0])
        .and_then(|w| w.defs.value_of(Loc::Mem(x)));
    let shown = t.client.read_mem(t.session, x).expect("read x");
    assert_eq!(written, Some(shown), "the reaching write's value is x's");
}

#[test]
fn relog_digest_matches_a_local_relog() {
    let mut t = Twin::new(ServeConfig::default());
    t.step(DebugSession::cont, Remote::run);
    let criterion = t.failure();
    let (container, report) = t.local.relog_criterion(criterion, SliceOptions::default());
    let relog = t
        .client
        .relog(t.session, SliceAt::Failure, SliceOptions::default())
        .expect("relog");
    assert_eq!(relog.digest, report.digest);
    assert_eq!(container.digest(), report.digest);
    assert_eq!(
        (relog.instructions, relog.kept),
        (report.instructions, report.kept)
    );
    assert_eq!(relog.excluded, report.excluded);
    assert_eq!(relog.instructions, relog.kept);
    let fetched =
        PinballContainer::from_bytes(&t.client.fetch(relog.digest).expect("fetch")).expect("loads");
    assert_eq!(fetched.digest(), relog.digest, "content-addressed");
    assert_eq!(fetched.pinball.logged_instructions(), relog.kept);
}

#[test]
fn watch_and_delete_match_a_local_session_and_unknown_ids_are_typed_errors() {
    let mut t = Twin::new(ServeConfig::default());
    assert!(!t.local.delete_breakpoint(42) && !t.local.delete_watchpoint(42));
    let reason = bad_request(t.client.delete(t.session, 42));
    assert!(reason.contains("42"), "{reason}");
    let x = t.x();
    let id = t.local.add_watchpoint(x);
    assert_eq!(t.client.watch(t.session, x).expect("watch"), id);
    let stop = t.step(DebugSession::cont, Remote::run);
    assert_eq!(
        stop,
        WireStop::Watchpoint {
            id,
            tid: 0,
            pc: 2,
            value: 5
        }
    );
    assert!(t.local.delete_watchpoint(id));
    t.client.delete(t.session, id).expect("delete");
    // With the watchpoint gone, a rerun from the entry runs to the end.
    let rerun = t.step(
        |s| {
            s.restart();
            s.cont()
        },
        |c, session| {
            c.seek(session, 0)?;
            c.run(session)
        },
    );
    assert_eq!(rerun, WireStop::ReplayEnd);
}

#[test]
fn reverse_run_stops_by_the_forward_rule_like_a_local_session() {
    // Two breakpoints and a watchpoint all match the store at pc 2.
    let mut t = Twin::new(ServeConfig::default());
    let x = t.x();
    let first = t.local.add_breakpoint(2, None);
    t.local.add_breakpoint(2, None);
    t.local.add_watchpoint(x);
    t.client.add_breakpoint(t.session, 2, None).expect("break");
    t.client.add_breakpoint(t.session, 2, None).expect("break");
    t.client.watch(t.session, x).expect("watch");
    let forward = t.step(DebugSession::cont, Remote::run);
    assert_eq!(
        forward,
        WireStop::Breakpoint {
            id: first,
            tid: 0,
            pc: 2
        }
    );
    assert_eq!(t.step(DebugSession::cont, Remote::run), WireStop::ReplayEnd);
    let back = t.step(DebugSession::reverse_continue, Remote::reverse_run);
    assert_eq!(back, forward, "reverse continue reports the forward stop");
    let start = t.step(DebugSession::reverse_continue, Remote::reverse_run);
    assert_eq!(start, WireStop::ReplayStart);
}

#[test]
fn bad_thread_and_register_are_bad_requests_and_the_shard_survives() {
    let mut t = Twin::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    t.step(DebugSession::stepi, Remote::stepi);
    assert_eq!(t.local.read_reg(7, Reg(1)), None);
    bad_request(t.client.read_reg(t.session, 7, Reg(1)));
    assert_eq!(t.local.read_reg(0, Reg(200)), None);
    bad_request(t.client.read_reg(t.session, 0, Reg(200)));
    // The shard's only worker still answers.
    assert_eq!(t.client.read_reg(t.session, 0, Reg(1)).expect("r1"), 5);
    t.step(DebugSession::cont, Remote::run);
    assert_eq!(t.server.stats().errors, 2);
}
