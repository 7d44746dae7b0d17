//! The served workloads: `serve-mixed` (one sharded `drserve::Server` on
//! 127.0.0.1: an open loop at four offered rates, then a closed loop) and
//! `fleet-forward` (three TCP nodes; every question crosses the peer hop).
//!
//! Load comes from this process: at most two generator threads and two
//! connections at a time. The servers' dispatcher, shard and gossip
//! threads belong to the program under test. Every reply is checked after
//! the timed window against a local [`Reference`] session: slices must be
//! byte-identical in canonical wire form, relogs must name the same slice
//! pinball digest.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use drdebug::DebugSession;
use drserve::proto::{self, REQUEST_KIND, RESPONSE_KIND};
use drserve::{
    connect, Client, FleetClient, HashRing, RecvError, Request, Response, ServeConfig, ServeStats,
    Server, ServerHandle, SessionId, SliceAt, WireSlice,
};
use minivm::{NullTool, Program};
use pinplay::{Pinball, PinballContainer, PinballDigest, ReplayStatus, Replayer, StreamWriter};
use slicer::{Criterion, SliceOptions};

use crate::oracle::{self, Reference, Tally};
use crate::programs::{self, Rng, PARSEC, SCHEDULE};
use crate::report::{e2e, metric, Metric, Outcome};
use crate::stats::{median, percentile, sort};
use crate::{best, windowed, Ctx};

/// Offered rates of the four open-loop steps, in requests per second.
/// Calibrated once on a 2-core machine, then frozen: changing them
/// changes the benchmark.
const RATES: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
/// The open-loop objective: read p99 at or under this...
const READ_P99_SLO_MS: f64 = 20.0;
/// ...while the generator kept to its schedule.
const LATE_P99_SLO_MS: f64 = 1.0;
/// Closed-loop requests in flight per serve-mixed connection.
const PIPELINE_DEPTH: usize = 4;
/// Chunks a write's streamed upload is cut into.
const STREAM_CHUNKS: usize = 4;
/// Repeat-question criteria per recording, cached during set-up.
const HOT_PER_RECORDING: usize = 2;
/// serve-mixed: share of the measured time for each open-loop step and
/// for the closed loop; the rest fetches and replays slice pinballs.
const STEP_SHARE: f64 = 0.15;
const CLOSED_SHARE: f64 = 0.3;
/// fleet-forward: record → first slice chains per window (a fixed count:
/// each leaves a recording and its index in the fleet), then the closed
/// loop until this share of the window; the rest replays slice pinballs.
const CHAINS: usize = 24;
const FLEET_CLOSED_SHARE: f64 = 0.9;
/// fleet-forward: one closed-loop question in this many is a relog.
const FLEET_RELOG_EVERY: usize = 20;
const MIXED_RECORDINGS: usize = 8;
const FLEET_RECORDINGS: usize = 6;
const FLEET_NODES: usize = 3;
/// Pool size per shard: long-lived read sessions must never be pushed out
/// by the sessions write chains open.
const SESSIONS: usize = 64;
/// fleet-forward's index cache per node: the owner's warm indexes sit
/// idle while chains build fresh ones, and must not be evicted by them.
const INDEXES: usize = 256;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    sort(&mut v);
    v
}

/// One recording a server workload serves: the program, the original
/// pinball (for the reference) and the v4 bytes the client uploads.
struct Rec {
    program: Arc<Program>,
    pinball: Pinball,
    bytes: Vec<u8>,
    digest: PinballDigest,
    /// Records in its trace: every id below this is a valid criterion.
    records: u64,
}

/// Records recording `i` of a served set under scheduler seed `schedule`:
/// churn, blackscholes and canneal in turn, growing with `i`. Their slices
/// stay small enough that a reply is mostly server work, not wire bytes (a
/// streamcluster slice is the whole region).
fn record(ctx: &Ctx, i: usize, schedule: u64) -> (Arc<Program>, Pinball) {
    let env = ctx.seed;
    let scale = if ctx.tiny { 1 } else { 4 + i as u64 };
    let program;
    let record: Box<dyn Fn() -> Pinball>;
    if i.is_multiple_of(3) {
        let iters = 25 * scale;
        program = programs::churn(iters);
        let p = Arc::clone(&program);
        record = Box::new(move || programs::record_churn(&p, iters, schedule, env).pinball);
    } else {
        let analog = &PARSEC[i % 3 - 1];
        let length = 250 * scale;
        program = programs::parsec_program(analog, 100, length);
        let p = Arc::clone(&program);
        record = Box::new(move || {
            programs::record_parsec(analog, &p, 100, length, schedule, env).pinball
        });
    }
    (program, ctx.call("pinplay.record", &*record))
}

fn recording(ctx: &Ctx, i: usize, schedule: u64) -> Rec {
    let (program, pinball) = record(ctx, i, schedule);
    encode(ctx, program, pinball)
}

/// Encodes a recording as the v4 bytes a client uploads.
fn encode(ctx: &Ctx, program: Arc<Program>, pinball: Pinball) -> Rec {
    let container = PinballContainer::new(pinball.clone());
    let bytes = ctx.call("pinplay.encode", || {
        container.to_bytes().expect("v4 encoding is infallible")
    });
    ctx.tracer
        .sample("pinplay.encode.bytes", bytes.len() as f64);
    // The client checks its container round-trips before uploading it.
    let loaded = ctx.call("pinplay.decode", || {
        PinballContainer::from_bytes(&bytes).expect("a fresh v4 container decodes")
    });
    assert_eq!(
        loaded.digest(),
        container.digest(),
        "v4 round trip keeps the digest"
    );
    Rec {
        records: pinball.logged_instructions(),
        digest: container.digest(),
        program,
        pinball,
        bytes,
    }
}

/// Fresh recording `i` for a write: each has its own schedule, so every
/// write is new to the server and its first slice builds cold.
fn fresh(ctx: &Ctx, i: usize) -> Rec {
    recording(ctx, 0, SCHEDULE + 1 + i as u64)
}

/// The local answer a write chain's first slice (at the failure point)
/// must match.
fn failure_answer(rec: &Rec) -> u64 {
    let mut session = DebugSession::new(Arc::clone(&rec.program), rec.pinball.clone());
    let slice = session
        .slice_failure()
        .expect("a recording has a last record");
    oracle::wire_answer(&WireSlice::from_slice(&slice))
}

fn frame(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    proto::write_message(&mut out, REQUEST_KIND, request).expect("writing to a Vec cannot fail");
    out
}

fn at(criterion: Criterion) -> SliceAt {
    SliceAt::Criterion { criterion }
}

/// What a question asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A criterion cached during set-up.
    Repeat,
    /// A criterion not asked before, on a warm index.
    New,
    /// Relog a new criterion into a slice pinball.
    Relog,
}

#[derive(Debug, Clone, Copy)]
struct Ask {
    class: Class,
    rec: usize,
    criterion: Criterion,
    session: SessionId,
}

/// A reply reduced to what the checks and metrics need, so thousands of
/// them cost the benchmark little memory.
enum Reply {
    /// A slice, identified by its canonical wire bytes.
    Slice { answer: u64, micros: u64 },
    Relogged {
        digest: PinballDigest,
        instructions: u64,
        kept: u64,
        micros: u64,
    },
    /// An error answer, an unexpected reply, or a broken connection.
    Failed(String),
}

impl Reply {
    fn of(received: Result<Response, RecvError>) -> Reply {
        match received {
            Ok(Response::Slice { slice, micros, .. }) => Reply::Slice {
                answer: oracle::wire_answer(&slice),
                micros,
            },
            Ok(Response::Relogged {
                digest,
                instructions,
                kept,
                micros,
                ..
            }) => Reply::Relogged {
                digest,
                instructions,
                kept,
                micros,
            },
            Ok(other) => Reply::Failed(format!("{other:?}")),
            Err(e) => Reply::Failed(format!("transport: {e}")),
        }
    }

    /// Server-side time spent answering, in ms.
    fn server_ms(&self) -> Option<f64> {
        match self {
            Reply::Slice { micros, .. } | Reply::Relogged { micros, .. } => {
                Some(*micros as f64 / 1e3)
            }
            Reply::Failed(_) => None,
        }
    }
}

/// A question and its reply.
struct Answered {
    ask: Ask,
    /// From the due time (open loop) or the send (closed loop).
    latency_ms: f64,
    /// From the send: what the server and the wire account for.
    sent_ms: f64,
    reply: Reply,
}

/// Strata a recording's records are split into for new criteria.
const STRATA: usize = 16;

/// The question mix of the open loop, as weights: repeat slices, new
/// criteria, relogs, and (`None`) write chains.
const MIX: [(Option<Class>, usize); 4] = [
    (Some(Class::Repeat), 60),
    (Some(Class::New), 25),
    (Some(Class::Relog), 5),
    (None, 10),
];

/// `n` entries in proportion to `weights`, as shuffled blocks that each
/// hold the smallest whole-number mix: a window's mix of classes is then
/// fixed, not a coin toss per question, and so is how closely the costly
/// classes (writes, relogs) follow each other, whatever the seed.
fn deck<T: Copy>(n: usize, weights: &[(T, usize)], rng: &mut Rng) -> Vec<T> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let unit = weights.iter().fold(0, |g, w| gcd(g, w.1));
    let mut block: Vec<T> = weights
        .iter()
        .flat_map(|&(item, w)| std::iter::repeat_n(item, w / unit))
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block.iter().take(n - out.len()));
    }
    out
}

/// Draws balanced questions, so every window asks the same mix: each
/// class takes the recordings in turn, repeats cycle through the cached
/// criteria, and a recording's new criteria come from its records'
/// strata in an interleaved order, one random record within each.
#[derive(Clone)]
struct Questions {
    /// Records per recording.
    records: Vec<u64>,
    hot: Vec<Vec<Criterion>>,
    sessions: Vec<SessionId>,
    /// The recordings asked about.
    pool: Vec<usize>,
    /// Questions drawn so far, per class and per recording.
    turns: [usize; 3],
    drawn: Vec<usize>,
    rng: Rng,
}

impl Questions {
    fn new(
        recs: &[Rec],
        hot: Vec<Vec<Criterion>>,
        sessions: Vec<SessionId>,
        pool: Vec<usize>,
        rng: Rng,
    ) -> Questions {
        Questions {
            records: recs.iter().map(|r| r.records).collect(),
            drawn: vec![0; recs.len()],
            hot,
            sessions,
            pool,
            turns: [0; 3],
            rng,
        }
    }

    /// An independent generator drawing the same mix.
    fn fork(&mut self) -> Questions {
        Questions {
            rng: self.rng.fork(),
            ..self.clone()
        }
    }

    fn next(&mut self, class: Class) -> Ask {
        let turn = &mut self.turns[class as usize];
        let rec = self.pool[*turn % self.pool.len()];
        let round = *turn / self.pool.len();
        *turn += 1;
        let criterion = match class {
            Class::Repeat => self.hot[rec][round % self.hot[rec].len()],
            Class::New | Class::Relog => {
                // 7 is coprime with STRATA: successive draws spread out.
                let stratum = self.drawn[rec] * 7 % STRATA;
                self.drawn[rec] += 1;
                let n = self.records[rec] as usize;
                let (lo, hi) = (stratum * n / STRATA, (stratum + 1) * n / STRATA);
                Criterion::Record {
                    id: (lo + self.rng.below((hi - lo).max(1))) as u64,
                }
            }
        };
        Ask {
            class,
            rec,
            criterion,
            session: self.sessions[rec],
        }
    }
}

fn request(a: &Ask) -> Request {
    let options = SliceOptions::default();
    let at = at(a.criterion);
    let session = a.session;
    match a.class {
        Class::Relog => Request::Relog {
            session,
            at,
            options,
        },
        _ => Request::ComputeSlice {
            session,
            at,
            options,
        },
    }
}

/// Counts bytes read, for `drserve.wire.bytes_per_reply`.
struct Counted<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// How long the open-loop generator naps between polls of the write
/// connection when nothing is due.
const POLL: Duration = Duration::from_micros(200);

/// `write_all` on a nonblocking socket: waits out a full send buffer.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn dial(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server under test");
    let _ = stream.set_nodelay(true);
    stream
}

/// A closed loop on one connection: `depth` questions in flight, the next
/// sent as each reply arrives, until `until`. Returns the answers and the
/// bytes read.
fn closed_loop(
    addr: SocketAddr,
    depth: usize,
    until: Instant,
    mut next: impl FnMut() -> Ask,
) -> (Vec<Answered>, u64) {
    let stream = dial(addr);
    let mut writer = stream.try_clone().expect("clone the socket for writing");
    let mut reader = BufReader::new(Counted {
        inner: stream,
        bytes: 0,
    });
    let mut inflight: VecDeque<(Ask, Instant)> = VecDeque::new();
    let mut out = Vec::new();
    let mut send = |inflight: &mut VecDeque<(Ask, Instant)>| {
        let a = next();
        inflight.push_back((a, Instant::now()));
        writer.write_all(&frame(&request(&a))).is_ok()
    };
    for _ in 0..depth {
        send(&mut inflight);
    }
    while let Some((ask, sent)) = inflight.pop_front() {
        let received = proto::read_message::<_, Response>(&mut reader, RESPONSE_KIND);
        let took = ms(sent.elapsed());
        let broken = received.is_err();
        out.push(Answered {
            ask,
            latency_ms: took,
            sent_ms: took,
            reply: Reply::of(received),
        });
        if broken {
            break;
        }
        if Instant::now() < until && !send(&mut inflight) {
            break;
        }
    }
    (out, reader.get_ref().bytes)
}

/// Two closed-loop connections, to `addrs[t]` asking `questions[t]`.
/// Returns the answers, the completed requests per second and the bytes
/// read.
fn closed_pair<Q: FnMut() -> Ask + Send>(
    addrs: [SocketAddr; 2],
    depth: usize,
    until: Instant,
    questions: [Q; 2],
) -> (Vec<Answered>, f64, u64) {
    let started = Instant::now();
    let results: Vec<(Vec<Answered>, u64)> = thread::scope(|s| {
        let handles: Vec<_> = addrs
            .into_iter()
            .zip(questions)
            .map(|(addr, next)| s.spawn(move || closed_loop(addr, depth, until, next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    let mut bytes = 0;
    for (a, b) in results {
        answers.extend(a);
        bytes += b;
    }
    let rps = answers.len() as f64 / secs.max(1e-9);
    (answers, rps, bytes)
}

/// Memoized reference answers over a set of recordings.
struct Refs {
    refs: Vec<Reference>,
    slices: HashMap<(usize, u64), u64>,
    relogs: HashMap<(usize, u64), (PinballDigest, u64)>,
}

fn key(c: Criterion) -> u64 {
    c.record_id()
}

impl Refs {
    fn new(ctx: &Ctx, recs: &[Rec], tally: &mut Tally) -> Refs {
        let mut rng = Rng::new(ctx.seed).fork();
        let refs = recs
            .iter()
            .map(|r| {
                let criteria: Vec<Criterion> = std::iter::once(last(r))
                    .chain((0..8).map(|_| Criterion::Record {
                        id: rng.below(r.records as usize) as u64,
                    }))
                    .collect();
                let mut reference =
                    Reference::new(ctx, &r.program, &r.pinball, &criteria, 2, &mut rng, tally);
                for &c in &criteria {
                    reference.wire_answer(ctx, c);
                }
                reference
            })
            .collect();
        Refs {
            refs,
            slices: HashMap::new(),
            relogs: HashMap::new(),
        }
    }

    /// Checks one reply against the local reference.
    fn check(&mut self, ctx: &Ctx, a: &Answered, tally: &mut Tally) {
        tally.attempt();
        let (rec, c) = (a.ask.rec, a.ask.criterion);
        let refs = &mut self.refs;
        match &a.reply {
            Reply::Slice { answer, .. } => {
                let want = *self
                    .slices
                    .entry((rec, key(c)))
                    .or_insert_with(|| refs[rec].wire_answer(ctx, c));
                tally.check(*answer == want, || {
                    format!(
                        "served slice of recording {rec} at {c:?} differs from the local session"
                    )
                });
            }
            Reply::Relogged {
                digest,
                instructions,
                kept,
                ..
            } => {
                let want = *self
                    .relogs
                    .entry((rec, key(c)))
                    .or_insert_with(|| refs[rec].relog(ctx, c));
                tally.check((*digest, *kept) == want && instructions == kept, || {
                    format!("served relog of recording {rec} at {c:?} is {digest:?}/{kept}, locally {want:?}")
                });
            }
            Reply::Failed(why) => {
                tally.fail(|| format!("{:?} on recording {rec}: {why}", a.ask.class));
            }
        }
    }
}

/// Relogged slice pinballs named by the replies: (recording, digest,
/// instructions kept), each once.
fn relogged(answers: &[Answered]) -> Vec<(usize, PinballDigest, u64)> {
    let mut seen = HashSet::new();
    answers
        .iter()
        .filter_map(|a| match &a.reply {
            Reply::Relogged { digest, kept, .. } if seen.insert(*digest) => {
                Some((a.ask.rec, *digest, *kept))
            }
            _ => None,
        })
        .collect()
}

/// Fetches relogged slice pinballs through `client` and replays them
/// locally — what a developer does before stepping through one — until
/// `until` (at least one). Returns fetch + decode + replay times in ms.
fn replay_slices<S: Read + Write>(
    ctx: &Ctx,
    client: &mut Client<S>,
    relogged: &[(usize, PinballDigest, u64)],
    recs: &[Rec],
    until: Instant,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut out = Vec::new();
    for &(rec, digest, kept) in relogged {
        if !out.is_empty() && Instant::now() >= until {
            break;
        }
        tally.attempt();
        let started = Instant::now();
        let fetched = {
            let _span = ctx.tracer.span("drserve.fetch");
            client.fetch(digest)
        };
        let Ok(bytes) = fetched else {
            tally.fail(|| format!("fetching slice pinball {digest:?} failed"));
            continue;
        };
        let Ok(container) = ctx.call("pinplay.decode", || PinballContainer::from_bytes(&bytes))
        else {
            tally.check(false, || {
                format!("slice pinball {digest:?} does not decode")
            });
            continue;
        };
        let logged = container.pinball.logged_instructions();
        let container = Arc::new(container);
        let (status, replayed) = ctx.call("pinplay.replay.slice", || {
            let mut r = Replayer::shared(Arc::clone(&recs[rec].program), Arc::clone(&container));
            (r.run(&mut NullTool), r.replayed_instructions())
        });
        out.push(ms(started.elapsed()));
        tally.check(
            container.digest() == digest
                && logged == kept
                && replayed == kept
                && status == ReplayStatus::Completed,
            || {
                format!(
                    "slice pinball {digest:?}: logged {logged}, replayed {replayed}, kept {kept}"
                )
            },
        );
    }
    out
}

/// Server counters, summed over nodes.
#[derive(Default, Clone, Copy)]
struct Counters {
    requests: u64,
    batches: u64,
    shed: u64,
    /// A high-water mark, not a count: the deepest any shard queue got.
    peak_depth: u64,
    slice_hits: u64,
    slice_misses: u64,
    relog_hits: u64,
    relog_misses: u64,
    index_builds: u64,
    evictions: u64,
    forwards: u64,
    peer_cache_hits: u64,
    /// Owner-side `PeerSlice` work: (count, total µs).
    peer_slices: (u64, u64),
}

impl Counters {
    fn of(stats: &[ServeStats]) -> Counters {
        let mut c = Counters::default();
        for s in stats {
            let op = s.op("peerslice");
            c = c.plus(&Counters {
                requests: s.requests,
                batches: s.shards.iter().map(|x| x.batches).sum(),
                shed: s.shed,
                peak_depth: s.shards.iter().map(|x| x.peak_depth).max().unwrap_or(0),
                slice_hits: s.cache.hits,
                slice_misses: s.cache.misses,
                relog_hits: s.relog_cache.hits,
                relog_misses: s.relog_cache.misses,
                index_builds: s.index_cache.misses,
                evictions: s.cache.evictions + s.index_cache.evictions + s.relog_cache.evictions,
                forwards: s.cluster.forwards,
                peer_cache_hits: s.cluster.peer_cache_hits,
                peer_slices: op.map_or((0, 0), |o| (o.count, o.total_micros)),
            });
        }
        c
    }

    /// Field by field `f`, except the peak depth, which takes `peak`.
    fn zip(&self, o: &Counters, f: fn(u64, u64) -> u64, peak: u64) -> Counters {
        Counters {
            requests: f(self.requests, o.requests),
            batches: f(self.batches, o.batches),
            shed: f(self.shed, o.shed),
            peak_depth: peak,
            slice_hits: f(self.slice_hits, o.slice_hits),
            slice_misses: f(self.slice_misses, o.slice_misses),
            relog_hits: f(self.relog_hits, o.relog_hits),
            relog_misses: f(self.relog_misses, o.relog_misses),
            index_builds: f(self.index_builds, o.index_builds),
            evictions: f(self.evictions, o.evictions),
            forwards: f(self.forwards, o.forwards),
            peer_cache_hits: f(self.peer_cache_hits, o.peer_cache_hits),
            peer_slices: (
                f(self.peer_slices.0, o.peer_slices.0),
                f(self.peer_slices.1, o.peer_slices.1),
            ),
        }
    }

    fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, u64::wrapping_add, self.peak_depth.max(o.peak_depth))
    }

    /// What accumulated since `before` was taken.
    fn since(&self, before: &Counters) -> Counters {
        self.zip(before, u64::saturating_sub, self.peak_depth)
    }
}

/// The server's layer metrics as its replies and counters over the
/// traced windows show them.
fn server_layers(answers: &[&Answered], c: &Counters, bytes: u64) -> Vec<Metric> {
    let mut compute = Vec::new();
    let mut wire = Vec::new();
    for a in answers {
        if let Some(server) = a.reply.server_ms() {
            compute.push(server);
            wire.push((a.sent_ms - server).max(0.0));
        }
    }
    let (compute, wire) = (sorted(compute), sorted(wire));
    let frac = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    vec![
        metric("drserve.compute.ms_p50", percentile(&compute, 0.5), "ms"),
        metric("drserve.compute.ms_p99", percentile(&compute, 0.99), "ms"),
        metric("drserve.wire_queue.ms_p50", percentile(&wire, 0.5), "ms"),
        metric("drserve.wire_queue.ms_p99", percentile(&wire, 0.99), "ms"),
        metric(
            "drserve.cache.slice_hit_frac",
            frac(c.slice_hits, c.slice_misses),
            "frac",
        ),
        metric(
            "drserve.cache.relog_hit_frac",
            frac(c.relog_hits, c.relog_misses),
            "frac",
        ),
        metric("drserve.cache.index_builds", c.index_builds as f64, "count"),
        metric("drserve.cache.evictions", c.evictions as f64, "count"),
        metric("drserve.admission.shed", c.shed as f64, "count"),
        metric("drserve.admission.peak_depth", c.peak_depth as f64, "count"),
        metric(
            "drserve.admission.reqs_per_batch",
            c.requests as f64 / c.batches.max(1) as f64,
            "ratio",
        ),
        metric(
            "drserve.wire.bytes_per_reply",
            bytes as f64 / answers.len().max(1) as f64,
            "bytes",
        ),
    ]
}

/// One window's end-to-end samples.
struct WindowStats {
    first: Vec<f64>,
    slices: Vec<f64>,
    relogs: Vec<f64>,
    replays: Vec<f64>,
    rps: f64,
}

/// End-to-end metrics every workload reports, in `END_TO_END` order: the
/// better windows' value of each (see [`crate::WINDOWS`]), with sample
/// counts over all windows.
fn end_to_end(setup_s: f64, windows: &[WindowStats], notes: &mut Vec<String>) -> Vec<Metric> {
    let p = |q: f64| move |w: &WindowStats| percentile(&sorted(w.slices.clone()), q);
    let total = |f: fn(&WindowStats) -> usize| windows.iter().map(f).sum::<usize>() as f64;
    let mut out = vec![
        e2e("setup_s", setup_s),
        windowed(notes, "first_slice_ms_p50", windows, |w| median(&w.first)),
        windowed(notes, "slice_ms_p50", windows, p(0.5)),
        windowed(notes, "slice_ms_p90", windows, p(0.9)),
        windowed(notes, "relog_ms_p50", windows, |w| median(&w.relogs)),
        windowed(notes, "slice_replay_ms_p50", windows, |w| {
            median(&w.replays)
        }),
        windowed(notes, "throughput_rps", windows, |w| w.rps),
        e2e("peak_rss_mb", crate::peak_rss_mb()),
        metric("first_slice_samples", total(|w| w.first.len()), "count"),
        metric("slice_samples", total(|w| w.slices.len()), "count"),
        metric("relog_samples", total(|w| w.relogs.len()), "count"),
    ];
    if windows.iter().all(|w| w.slices.len() >= 1000) {
        out.push(metric("slice_ms_p99", best(windows, false, p(0.99)), "ms"));
    }
    out
}

fn latencies(answers: &[Answered], class: Class) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.ask.class == class && !matches!(a.reply, Reply::Failed(_)))
        .map(|a| a.latency_ms)
        .collect()
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

struct Mixed {
    // Declared before `_server`: the listener stops before the service.
    handle: ServerHandle,
    _server: Server,
    recs: Vec<Rec>,
    questions: Questions,
    /// Fresh recordings for write chains, each streamed up once.
    writes: Vec<WriteRec>,
    writes_used: usize,
}

/// A write's recording with its upload frames prepared in set-up, so the
/// generator never stalls on encoding.
struct WriteRec {
    rec: Rec,
    /// BeginStream, AppendChunk × [`STREAM_CHUNKS`], SealStream.
    frames: Vec<Vec<u8>>,
}

fn write_rec(ctx: &Ctx, i: usize) -> WriteRec {
    let rec = fresh(ctx, i);
    let container = PinballContainer::new(rec.pinball.clone());
    let writer = StreamWriter::new(&container).expect("v4 stream encoding is infallible");
    let stream = writer.digest().0;
    let mut frames = vec![frame(&Request::BeginStream {
        stream,
        program: (*rec.program).clone(),
        expect_digest: Some(writer.digest()),
    })];
    for (seq, piece) in writer.chunks(STREAM_CHUNKS).iter().enumerate() {
        frames.push(frame(&Request::AppendChunk {
            stream,
            seq: seq as u32,
            bytes: piece.to_vec(),
        }));
    }
    frames.push(frame(&Request::SealStream {
        stream,
        footer: writer.footer().to_vec(),
    }));
    WriteRec { rec, frames }
}

/// Writes a run can use: one in ten open-loop questions, with room.
fn writes_needed(seconds: f64) -> usize {
    let offered: f64 = RATES.iter().map(|r| r * seconds * STEP_SHARE).sum();
    (offered * 0.1 * 1.5) as usize + 8
}

fn mixed_setup(ctx: &Ctx) -> Mixed {
    let server = Server::new(ServeConfig {
        max_sessions: SESSIONS,
        ..ServeConfig::default()
    });
    let handle = server.listen("127.0.0.1:0").expect("bind 127.0.0.1");
    let mut client = connect(handle.addr()).expect("connect to the server under test");
    let recs: Vec<Rec> = (0..MIXED_RECORDINGS)
        .map(|i| recording(ctx, i, SCHEDULE ^ ((i as u64) << 32)))
        .collect();
    let mut sessions = Vec::new();
    let mut hot = Vec::new();
    for r in &recs {
        {
            let _span = ctx.tracer.span("drserve.upload");
            client
                .upload_bytes(&r.program, r.bytes.clone())
                .expect("upload to the server under test");
        }
        let session = client.open(r.digest).expect("open a served session");
        // Warm-up: the index build, and the repeat set (records at fixed
        // fractions of the recording) into the cache.
        let criteria: Vec<Criterion> = (1..=HOT_PER_RECORDING as u64)
            .map(|k| Criterion::Record {
                id: k * r.records / (HOT_PER_RECORDING as u64 + 1),
            })
            .collect();
        for &c in &criteria {
            client
                .compute_slice(session, at(c), SliceOptions::default())
                .expect("warm-up slice");
        }
        sessions.push(session);
        hot.push(criteria);
    }
    let writes = (0..if ctx.tiny {
        4
    } else {
        writes_needed(ctx.seconds)
    })
        .map(|i| write_rec(ctx, i))
        .collect();
    let all = (0..recs.len()).collect();
    Mixed {
        handle,
        _server: server,
        questions: Questions::new(&recs, hot, sessions, all, Rng::new(ctx.seed ^ 0x5e7e)),
        recs,
        writes,
        writes_used: 0,
    }
}

/// One write chain: streamed upload → open → first slice → close, each
/// step sent as soon as the previous reply arrives.
struct Chain {
    write: usize,
    due: Instant,
    /// Upload frames sent so far.
    sent: usize,
    session: Option<SessionId>,
    upload_ms: Option<f64>,
    /// First slice latency from due time, and its answer.
    first_slice: Option<(f64, u64)>,
    done: bool,
    failed: Option<String>,
}

impl Chain {
    /// Takes the reply to this chain's last request; returns the next
    /// request frame, if any.
    fn advance(&mut self, reply: Response, w: &WriteRec) -> Option<Vec<u8>> {
        match reply {
            Response::StreamAck { .. } if self.sent < w.frames.len() => {
                self.sent += 1;
                Some(w.frames[self.sent - 1].clone())
            }
            Response::Uploaded { digest, .. } if digest == w.rec.digest => {
                self.upload_ms = Some(ms(self.due.elapsed()));
                Some(frame(&Request::OpenSession { digest }))
            }
            Response::SessionOpened { session } => {
                self.session = Some(session);
                Some(frame(&Request::ComputeSlice {
                    session,
                    at: SliceAt::Failure,
                    options: SliceOptions::default(),
                }))
            }
            Response::Slice { slice, .. } => {
                self.first_slice = Some((ms(self.due.elapsed()), oracle::wire_answer(&slice)));
                let session = self.session?;
                Some(frame(&Request::CloseSession { session }))
            }
            Response::Closed { .. } => {
                self.done = true;
                None
            }
            other => {
                self.failed = Some(format!("write chain step {}: {other:?}", self.sent));
                None
            }
        }
    }
}

/// One open-loop arrival: its due time, the question with its encoded
/// frame (`None`: a write chain), and its step.
type Slot = (Instant, Option<(Ask, Vec<u8>)>, usize);

/// One open-loop step's outcome.
struct Step {
    rate: f64,
    /// Read (slice) latencies from due time; a failed read is infinite.
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Reads sent but unanswered when the step's schedule ended.
    backlog: usize,
}

impl Step {
    /// Read p99 within the objective, no growing backlog, and the
    /// generator on schedule.
    fn meets_slo(&self) -> bool {
        let reads = sorted(self.read_ms.clone());
        let late = sorted(self.late_ms.clone());
        let allowed_backlog = 2.0 + self.rate * READ_P99_SLO_MS / 1e3;
        percentile(&reads, 0.99) <= READ_P99_SLO_MS
            && percentile(&late, 0.99) < LATE_P99_SLO_MS
            && (self.backlog as f64) <= allowed_backlog
    }
}

/// What an open loop collected.
struct OpenLoop {
    reads: Vec<Answered>,
    chains: Vec<Chain>,
    steps: Vec<Step>,
    bytes: u64,
}

/// The open loop: reads on one connection (this thread sends on
/// schedule, a second thread receives), write chains on another (this
/// thread advances each chain as its replies arrive, waiting on that
/// connection until the next send is due). Every question is timed from
/// its due time.
fn open_loop(st: &mut Mixed, step_len: Duration) -> OpenLoop {
    let addr = st.handle.addr();
    let mut reads = dial(addr);
    let mut writes = dial(addr);

    // Evenly spaced arrivals per step, in the exact mix, shuffled.
    let start = Instant::now() + Duration::from_millis(2);
    let mut schedule: Vec<Slot> = Vec::new();
    for (k, rate) in RATES.iter().enumerate() {
        let step_start = start + step_len.mul_f64(k as f64);
        let n = (rate * step_len.as_secs_f64()).round() as usize;
        let q = &mut st.questions;
        for (i, class) in deck(n, &MIX, &mut q.rng).into_iter().enumerate() {
            let due = step_start + Duration::from_secs_f64(i as f64 / rate);
            let a = class.map(|c| {
                let a = q.next(c);
                (a, frame(&request(&a)))
            });
            schedule.push((due, a, k));
        }
    }

    let received = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<(Ask, Instant, Instant, usize)>();
    let receiver = {
        let stream = reads.try_clone().expect("clone the read connection");
        let received = Arc::clone(&received);
        thread::spawn(move || {
            let mut reader = BufReader::new(Counted {
                inner: stream,
                bytes: 0,
            });
            let mut out = Vec::new();
            while let Ok((ask, due, sent, k)) = rx.recv() {
                let reply = proto::read_message::<_, Response>(&mut reader, RESPONSE_KIND);
                let (latency_ms, sent_ms) = (ms(due.elapsed()), ms(sent.elapsed()));
                out.push((
                    k,
                    Answered {
                        ask,
                        latency_ms,
                        sent_ms,
                        reply: Reply::of(reply),
                    },
                ));
                received.fetch_add(1, Ordering::Relaxed);
            }
            (out, reader.get_ref().bytes)
        })
    };

    let mut steps: Vec<Step> = RATES
        .iter()
        .map(|&rate| Step {
            rate,
            read_ms: Vec::new(),
            late_ms: Vec::new(),
            backlog: 0,
        })
        .collect();
    // The write connection is polled, never waited on: a socket read
    // timeout is only as fine as the kernel tick, which would make the
    // generator late.
    writes
        .set_nonblocking(true)
        .expect("make the write connection nonblocking");
    let mut chains: Vec<Chain> = Vec::new();
    let mut expecting: VecDeque<usize> = VecDeque::new(); // chain per pending write reply
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let (mut next, mut step, mut sent_reads) = (0usize, 0usize, 0usize);
    let mut broken: Option<String> = None;
    loop {
        let now = Instant::now();
        if step < RATES.len() && now >= start + step_len.mul_f64(step as f64 + 1.0) {
            steps[step].backlog = sent_reads - received.load(Ordering::Relaxed);
            step += 1;
        }
        while broken.is_none() && next < schedule.len() && schedule[next].0 <= now {
            let (due, a, k) = &schedule[next];
            let (due, k) = (*due, *k);
            next += 1;
            let sent = Instant::now();
            steps[k].late_ms.push(ms(sent - due));
            if let Some((a, bytes)) = a {
                tx.send((*a, due, sent, k))
                    .expect("the receiver outlives the schedule");
                sent_reads += 1;
                if let Err(e) = reads.write_all(bytes) {
                    broken = Some(format!("read connection: {e}"));
                }
            } else if st.writes_used < st.writes.len() {
                let id = chains.len();
                chains.push(Chain {
                    write: st.writes_used,
                    due,
                    sent: 1,
                    session: None,
                    upload_ms: None,
                    first_slice: None,
                    done: false,
                    failed: None,
                });
                st.writes_used += 1;
                expecting.push_back(id);
                if let Err(e) = send_all(&mut writes, &st.writes[chains[id].write].frames[0]) {
                    broken = Some(format!("write connection: {e}"));
                }
            }
        }
        if (next == schedule.len() || broken.is_some()) && expecting.is_empty() {
            break;
        }
        let mut got = false;
        loop {
            match writes.read(&mut scratch) {
                Ok(0) => broken = Some("write connection closed".to_string()),
                Ok(n) => {
                    buf.extend_from_slice(&scratch[..n]);
                    got = true;
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => broken = Some(format!("write connection: {e}")),
            }
            break;
        }
        loop {
            let (reply, used) = match proto::try_decode::<Response>(&buf, RESPONSE_KIND) {
                Ok(Some(x)) => x,
                Ok(None) => break,
                Err(e) => {
                    broken = Some(format!("write connection frame: {e}"));
                    break;
                }
            };
            buf.drain(..used);
            let Some(id) = expecting.pop_front() else {
                break;
            };
            let c = &mut chains[id];
            if let Some(f) = c.advance(reply, &st.writes[c.write]) {
                expecting.push_back(id);
                if let Err(e) = send_all(&mut writes, &f) {
                    broken = Some(format!("write connection: {e}"));
                }
            }
        }
        if let Some(why) = &broken {
            for id in expecting.drain(..) {
                chains[id].failed.get_or_insert_with(|| why.clone());
            }
        }
        if !got {
            // Nothing arrived: nap until the next send is due, waking
            // often enough to pass chain replies on promptly.
            let wait = schedule
                .get(next)
                .map_or(POLL, |s| s.0.saturating_duration_since(Instant::now()));
            thread::sleep(wait.min(POLL));
        }
    }
    drop(tx);
    let (answered, bytes) = receiver.join().expect("open-loop receiver thread");
    let mut out = Vec::with_capacity(answered.len());
    for (k, a) in answered {
        if a.ask.class != Class::Relog {
            // A failed read misses any objective.
            let ok = matches!(a.reply, Reply::Slice { .. });
            steps[k]
                .read_ms
                .push(if ok { a.latency_ms } else { f64::INFINITY });
        }
        out.push(a);
    }
    OpenLoop {
        reads: out,
        chains,
        steps,
        bytes,
    }
}

/// What one `serve-mixed` window collected.
struct MixedWindow {
    open: OpenLoop,
    closed: Vec<Answered>,
    closed_rps: f64,
    replay_ms: Vec<f64>,
    /// The replay checks.
    tally: Tally,
    /// Server counts over the open and closed loops.
    counters: Counters,
    bytes: u64,
}

impl MixedWindow {
    fn stats(&self) -> WindowStats {
        WindowStats {
            first: self
                .open
                .chains
                .iter()
                .filter_map(|c| c.first_slice.as_ref().map(|f| f.0))
                .collect(),
            // Every slice read: repeats the cache answers and new
            // criteria a warm index answers, as a debugging user mixes them.
            slices: latencies(&self.open.reads, Class::Repeat)
                .into_iter()
                .chain(latencies(&self.open.reads, Class::New))
                .collect(),
            relogs: latencies(&self.open.reads, Class::Relog),
            replays: self.replay_ms.clone(),
            rps: self.closed_rps,
        }
    }
}

/// One node's counters, by the `Stats` op on a connection of its own that
/// is closed again before the load's connections open.
fn stats_at(addr: SocketAddr) -> ServeStats {
    connect(addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
        .expect("stats from the server under test")
}

/// One `serve-mixed` window: the open loop through the four rates, the
/// closed loop, then fetching and replaying the slice pinballs relogged.
/// Each phase opens its own connections and closes them before the next,
/// so at most two are open at a time.
fn mixed_window(ctx: &Ctx, st: &mut Mixed, len: Duration) -> MixedWindow {
    let started = Instant::now();
    let addr = st.handle.addr();
    let before = Counters::of(&[stats_at(addr)]);
    let open = open_loop(st, len.mul_f64(STEP_SHARE));

    // The closed loop asks the open loop's read mix, in blocks of 90.
    let until = started + len.mul_f64(4.0 * STEP_SHARE + CLOSED_SHARE);
    let reads = [(Class::Repeat, 60), (Class::New, 25), (Class::Relog, 5)];
    let questions = [st.questions.fork(), st.questions.fork()].map(|mut q| {
        let mut block = Vec::new();
        move || {
            if block.is_empty() {
                block = deck(90, &reads, &mut q.rng);
            }
            let class = block.pop().expect("a refilled block");
            q.next(class)
        }
    });
    let (closed, closed_rps, closed_bytes) =
        closed_pair([addr, addr], PIPELINE_DEPTH, until, questions);
    let counters = Counters::of(&[stats_at(addr)]).since(&before);

    let mut tally = Tally::default();
    let mut slices = relogged(&open.reads);
    slices.extend(relogged(&closed));
    let replay_ms = replay_slices(
        ctx,
        &mut connect(addr).expect("connect for fetches"),
        &slices,
        &st.recs,
        started + len,
        &mut tally,
    );
    let bytes = open.bytes + closed_bytes;
    MixedWindow {
        open,
        closed,
        closed_rps,
        replay_ms,
        tally,
        counters,
        bytes,
    }
}

/// `serve-mixed`: eight recordings on one server with default shards.
/// Reads (60% repeat slices, 25% new-criterion slices, 5% relogs) share
/// the shards with writes (10%: stream up a fresh recording, open, first
/// slice, close), so a gain for one class that costs the other shows.
/// The only workload with admission control and queueing in play.
pub fn mixed(ctx: &Ctx) -> Outcome {
    let (mut st, setup_s) = ctx.setup(|| mixed_setup(ctx));
    let mut tally = Tally::default();
    let mut refs = Refs::new(ctx, &st.recs, &mut tally);
    let (phases, overhead) = ctx.measure(|len| mixed_window(ctx, &mut st, len), |w| w.closed_rps);

    for w in phases.iter().flatten() {
        for a in w.open.reads.iter().chain(&w.closed) {
            refs.check(ctx, a, &mut tally);
        }
        for c in &w.open.chains {
            tally.attempt();
            let write = &st.writes[c.write];
            match (&c.failed, &c.first_slice) {
                (Some(why), _) => tally.fail(|| why.clone()),
                (None, Some((_, answer))) if c.done => {
                    tally.check(*answer == failure_answer(&write.rec), || {
                        format!(
                            "first slice of write {} differs from the local session",
                            c.write
                        )
                    });
                }
                _ => tally.fail(|| format!("write {} did not finish", c.write)),
            }
        }
        tally.absorb_counts(&w.tally);
    }

    let ws = &phases[0];
    let stats: Vec<WindowStats> = ws.iter().map(MixedWindow::stats).collect();
    let mut out = Outcome::default();
    out.metrics = end_to_end(setup_s, &stats, &mut out.notes);
    // The open-loop objective, per rate over every window's step at it.
    let mut max_rps = 0.0f64;
    for (k, rate) in RATES.iter().enumerate() {
        let step = Step {
            rate: *rate,
            read_ms: ws
                .iter()
                .flat_map(|w| w.open.steps[k].read_ms.clone())
                .collect(),
            late_ms: ws
                .iter()
                .flat_map(|w| w.open.steps[k].late_ms.clone())
                .collect(),
            backlog: ws
                .iter()
                .map(|w| w.open.steps[k].backlog)
                .max()
                .unwrap_or(0),
        };
        if step.meets_slo() {
            max_rps = max_rps.max(*rate);
        }
        out.notes.push(format!(
            "open loop at {rate} rps: read p99 {:.2} ms over {} reads, generator late p99 {:.3} ms, backlog {}{}",
            percentile(&sorted(step.read_ms.clone()), 0.99),
            step.read_ms.len(),
            percentile(&sorted(step.late_ms.clone()), 0.99),
            step.backlog,
            if step.meets_slo() { "" } else { " (misses the objective)" },
        ));
    }
    out.metrics.push(metric("max_rps_slo", max_rps, "1/s"));
    if let (Some(overhead), Some(traced)) = (overhead, phases.last()) {
        out.layers = crate::layer_metrics(ctx, overhead);
        let answers: Vec<&Answered> = traced
            .iter()
            .flat_map(|w| w.open.reads.iter().chain(&w.closed))
            .collect();
        let bytes = traced.iter().map(|w| w.bytes).sum();
        let counters = traced
            .iter()
            .fold(Counters::default(), |sum, w| sum.plus(&w.counters));
        out.layers.extend(server_layers(&answers, &counters, bytes));
        let uploads: Vec<f64> = traced
            .iter()
            .flat_map(|w| w.open.chains.iter().filter_map(|c| c.upload_ms))
            .collect();
        out.layers
            .push(metric("drserve.upload.ms_p50", median(&uploads), "ms"));
        let late: Vec<f64> = traced
            .iter()
            .flat_map(|w| w.open.steps.iter().flat_map(|s| s.late_ms.iter().copied()))
            .collect();
        out.layers.push(metric(
            "gen.late_ms_p99",
            percentile(&sorted(late), 0.99),
            "ms",
        ));
    }
    tally.finish(out)
}

// ---------------------------------------------------------------------
// fleet-forward
// ---------------------------------------------------------------------

/// One load connection's view of the fleet: the node it talks to, the
/// recordings it asks about (none of which that node owns), and its
/// session there on each.
struct View {
    addr: SocketAddr,
    questions: Questions,
}

struct Fleet {
    // Declared before `_servers`: listeners stop before the services.
    handles: Vec<ServerHandle>,
    _servers: Vec<Server>,
    recs: Vec<Rec>,
    /// The fleet's ring as a [`FleetClient`] learned it in set-up: which
    /// node owns a digest.
    ring: HashRing,
    views: [View; 2],
}

impl Fleet {
    fn owner(&self, digest: PinballDigest) -> String {
        self.ring
            .owner(digest)
            .expect("a fleet has members")
            .to_string()
    }
}

fn boot_fleet() -> (Vec<ServerHandle>, Vec<Server>) {
    let base = ServeConfig {
        shards: 1,
        max_sessions: SESSIONS,
        index_cache_capacity: INDEXES,
        gossip_interval: Duration::from_millis(50),
        peer_fail_after: Duration::from_millis(1_000),
        ..ServeConfig::default()
    };
    let mut servers = Vec::new();
    let mut handles: Vec<ServerHandle> = Vec::new();
    for i in 0..FLEET_NODES {
        let config = match handles.first() {
            None => ServeConfig {
                cluster: true,
                ..base.clone()
            },
            Some(seed) => ServeConfig {
                peers: vec![seed.addr().to_string()],
                ..base.clone()
            },
        };
        let server = Server::new(config);
        handles.push(
            server
                .listen("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("bind fleet node {i}: {e}")),
        );
        servers.push(server);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    for (i, s) in servers.iter().enumerate() {
        while s.stats().cluster.nodes_alive < FLEET_NODES as u64 {
            assert!(
                Instant::now() < deadline,
                "fleet node {i} never saw the whole fleet"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
    (handles, servers)
}

/// The node that owns every served recording; the other two carry the
/// load. A shard forwards synchronously, so two nodes forwarding to each
/// other can each hold their only shard while waiting on the other's —
/// the load never asks the owner, and the owner never forwards.
const OWNER: usize = 0;

fn fleet_setup(ctx: &Ctx) -> Fleet {
    let (handles, servers) = boot_fleet();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let mut fleet = FleetClient::connect(&addrs[OWNER]).expect("connect to the fleet");
    // Each recording is renamed until its digest falls to the owner node:
    // the name is part of the digest and the execution stays as recorded,
    // so no seed draws a costlier thread schedule than another.
    let recs: Vec<Rec> = (0..FLEET_RECORDINGS)
        .map(|i| {
            let (program, mut pinball) = record(ctx, i, SCHEDULE ^ ((i as u64) << 32));
            let region = pinball.meta.region.clone();
            for candidate in 0u64.. {
                pinball.meta.region = format!("{region} #{candidate}");
                if fleet.owner_of(pinball.digest()) == addrs[OWNER] {
                    break;
                }
            }
            encode(ctx, program, pinball)
        })
        .collect();
    for r in &recs {
        {
            let _span = ctx.tracer.span("drserve.upload");
            fleet
                .upload_bytes(&r.program, r.bytes.clone())
                .expect("upload to the owner");
        }
        // Warm the owner: the fleet's one index build for this digest.
        let session = fleet.open(r.digest).expect("open at the owner");
        fleet
            .compute_slice(&session, at(last(r)), SliceOptions::default())
            .expect("warm-up at the owner");
        fleet.close(&session).expect("close at the owner");
    }
    let ring = fleet.ring().clone();
    drop(fleet);
    let all: Vec<usize> = (0..recs.len()).collect();
    let views = [(OWNER + 1) % FLEET_NODES, (OWNER + 2) % FLEET_NODES].map(|n| {
        let rng = Rng::new(ctx.seed ^ 0xf1ee7 ^ n as u64);
        let addr = handles[n].addr();
        let mut client = connect(addr).expect("connect to a fleet node");
        // Opening pulls the recording from its owner; one forwarded slice
        // warms the node's pooled peer connection.
        let sessions = recs
            .iter()
            .map(|r| {
                let session = client.open(r.digest).expect("open at a non-owner");
                client
                    .compute_slice(session, at(last(r)), SliceOptions::default())
                    .expect("warm-up forward");
                session
            })
            .collect();
        View {
            addr,
            questions: Questions::new(&recs, Vec::new(), sessions, all.clone(), rng),
        }
    });
    Fleet {
        handles,
        _servers: servers,
        recs,
        ring,
        views,
    }
}

/// The last record of a recording: a criterion every reference and
/// warm-up can use.
fn last(r: &Rec) -> Criterion {
    Criterion::Record { id: r.records - 1 }
}

/// One record → first slice chain through the fleet.
struct FleetChain {
    rec: Rec,
    first_ms: f64,
    upload_ms: f64,
    /// The first slice's answer, or why there was none.
    reply: Result<u64, String>,
}

/// Records a fresh region, streams it to its owner, and asks its first
/// slice at a node that does not own it (so the question forwards and the
/// owner builds cold). Each step dials its node and hangs up, as a
/// developer's upload and debugger commands would.
fn fleet_chain(ctx: &Ctx, st: &Fleet, i: usize) -> FleetChain {
    let started = Instant::now();
    let rec = fresh(ctx, i);
    let container = PinballContainer::new(rec.pinball.clone());
    let owner = st.owner(rec.digest);
    let uploaded = {
        let _span = ctx.tracer.span("drserve.upload");
        connect(owner.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.upload_streamed(&rec.program, &container, STREAM_CHUNKS)
                    .map_err(|e| e.to_string())
            })
    };
    let upload_ms = ms(started.elapsed());
    let view = st.views[usize::from(st.views[0].addr.to_string() == owner)].addr;
    let first_slice = || -> Result<u64, String> {
        let mut client = connect(view).map_err(|e| e.to_string())?;
        let session = client.open(rec.digest).map_err(|e| e.to_string())?;
        let reply = client.compute_slice(session, SliceAt::Failure, SliceOptions::default());
        let _ = client.close(session);
        reply
            .map(|r| oracle::wire_answer(&r.slice))
            .map_err(|e| e.to_string())
    };
    let reply = uploaded.and_then(|_| first_slice());
    FleetChain {
        first_ms: ms(started.elapsed()),
        upload_ms,
        rec,
        reply,
    }
}

struct FleetWindow {
    chains: Vec<FleetChain>,
    closed: Vec<Answered>,
    closed_rps: f64,
    replay_ms: Vec<f64>,
    /// The replay checks.
    tally: Tally,
    /// Fleet-wide counts over the closed loop.
    counters: Counters,
    bytes: u64,
}

impl FleetWindow {
    fn stats(&self) -> WindowStats {
        WindowStats {
            first: self
                .chains
                .iter()
                .filter(|c| c.reply.is_ok())
                .map(|c| c.first_ms)
                .collect(),
            slices: latencies(&self.closed, Class::New),
            relogs: latencies(&self.closed, Class::Relog),
            replays: self.replay_ms.clone(),
            rps: self.closed_rps,
        }
    }
}

/// Fleet-wide counters, one node at a time.
fn fleet_stats(st: &Fleet) -> Counters {
    let all: Vec<ServeStats> = st.handles.iter().map(|h| stats_at(h.addr())).collect();
    Counters::of(&all)
}

/// One `fleet-forward` window: record → first slice chains, the closed
/// loop, then fetching and replaying the slice pinballs relogged. Each
/// phase opens its own connections and closes them before the next, so at
/// most two are open at a time.
fn fleet_window(ctx: &Ctx, st: &mut Fleet, len: Duration, chains_made: &mut usize) -> FleetWindow {
    let started = Instant::now();
    let chains: Vec<FleetChain> = (0..if ctx.tiny { 2 } else { CHAINS })
        .map(|_| {
            *chains_made += 1;
            fleet_chain(ctx, st, *chains_made)
        })
        .collect();

    let before = fleet_stats(st);
    let until = started + len.mul_f64(FLEET_CLOSED_SHARE);
    let addrs = [st.views[0].addr, st.views[1].addr];
    let questions = st.views.each_mut().map(|v| {
        let mut i = 0;
        move || {
            i += 1;
            let class = if i % FLEET_RELOG_EVERY == 0 {
                Class::Relog
            } else {
                Class::New
            };
            v.questions.next(class)
        }
    });
    let (closed, closed_rps, bytes) = closed_pair(addrs, 1, until, questions);
    let counters = fleet_stats(st).since(&before);

    let mut tally = Tally::default();
    let replay_ms = replay_slices(
        ctx,
        &mut connect(st.views[0].addr).expect("connect to a fleet node"),
        &relogged(&closed),
        &st.recs,
        started + len,
        &mut tally,
    );
    FleetWindow {
        chains,
        closed,
        closed_rps,
        replay_ms,
        tally,
        counters,
        bytes,
    }
}

/// `fleet-forward`: three nodes with one shard each; two closed-loop
/// connections, each to a node asked only about recordings another node
/// owns, with new criteria so every question forwards once. The only
/// workload that crosses the peer hop; the warm owner never rebuilds, so
/// collect and index changes should leave its closed loop flat.
pub fn fleet(ctx: &Ctx) -> Outcome {
    let (mut st, setup_s) = ctx.setup(|| fleet_setup(ctx));
    let mut tally = Tally::default();
    let mut refs = Refs::new(ctx, &st.recs, &mut tally);
    let mut chains_made = 0;
    let (phases, overhead) = ctx.measure(
        |len| fleet_window(ctx, &mut st, len, &mut chains_made),
        |w| w.closed_rps,
    );

    for w in phases.iter().flatten() {
        for a in &w.closed {
            refs.check(ctx, a, &mut tally);
        }
        for (i, c) in w.chains.iter().enumerate() {
            tally.attempt();
            match &c.reply {
                Ok(answer) => tally.check(*answer == failure_answer(&c.rec), || {
                    format!("first slice of fleet chain {i} differs from the local session")
                }),
                Err(e) => tally.fail(|| format!("fleet chain {i}: {e}")),
            }
        }
        tally.absorb_counts(&w.tally);
    }

    let stats: Vec<WindowStats> = phases[0].iter().map(FleetWindow::stats).collect();
    let mut out = Outcome::default();
    out.metrics = end_to_end(setup_s, &stats, &mut out.notes);
    if let (Some(overhead), Some(traced)) = (overhead, phases.last()) {
        out.layers = crate::layer_metrics(ctx, overhead);
        let answers: Vec<&Answered> = traced.iter().flat_map(|w| &w.closed).collect();
        let counters = traced
            .iter()
            .fold(Counters::default(), |sum, w| sum.plus(&w.counters));
        let bytes = traced.iter().map(|w| w.bytes).sum();
        out.layers.extend(server_layers(&answers, &counters, bytes));
        let uploads: Vec<f64> = traced
            .iter()
            .flat_map(|w| w.chains.iter().map(|c| c.upload_ms))
            .collect();
        out.layers
            .push(metric("drserve.upload.ms_p50", median(&uploads), "ms"));
        // The peer hop: a non-owner's answer time minus the owner's mean
        // time on the forwarded `PeerSlice`.
        let (n, total) = counters.peer_slices;
        let owner_ms = total as f64 / n.max(1) as f64 / 1e3;
        let hops: Vec<f64> = answers
            .iter()
            .filter(|a| matches!(a.reply, Reply::Slice { .. }))
            .filter_map(|a| a.reply.server_ms())
            .map(|server| server - owner_ms)
            .collect();
        out.layers.extend([
            metric(
                "drserve.cluster.forwards",
                counters.forwards as f64,
                "count",
            ),
            metric(
                "drserve.cluster.peer_cache_hits",
                counters.peer_cache_hits as f64,
                "count",
            ),
            metric(
                "drserve.cluster.fleet_index_builds",
                counters.index_builds as f64,
                "count",
            ),
            metric("drserve.cluster.peer_hop_ms_p50", median(&hops), "ms"),
        ]);
    }
    tally.finish(out)
}
