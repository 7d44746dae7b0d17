//! Typed client for the drserve wire protocol.
//!
//! [`Client`] wraps any `Read + Write` stream — a `TcpStream` from
//! [`crate::connect`] or a loopback pipe from
//! [`crate::Server::loopback_client`] — and exposes one method per
//! request. Each method writes a single request frame, reads a single
//! response frame, and converts protocol-level [`ServeError`]s and
//! unexpected response shapes into a typed [`ClientError`].

use std::fmt;
use std::io::{Read, Write};
use std::thread;
use std::time::Duration;

use minivm::{Addr, Pc, Program, Reg, Tid};
use pinplay::{Pinball, PinballContainer, PinballDigest, StreamWriter};
use slicer::{Criterion, SliceOptions};

use crate::proto::{
    self, NodeInfo, RecvError, Request, Response, ServeError, ServeStats, SessionId, SliceAt,
    WireBreakpoint, WireSlice, WireStop, REQUEST_KIND, RESPONSE_KIND,
};

/// Bounded retry-with-backoff for [`ServeError::Busy`] answers.
///
/// The protocol is strictly request/response and a `Busy` rejection means
/// the request was *never executed* (it was shed at admission or at the
/// session pool), so resending is always safe. The server's
/// `retry_after_ms` hint scales with the rejecting shard's backlog; the
/// client honors it, capped by `max_backoff_ms`, and gives up after
/// `attempts` retries — bounded pressure, never a retry storm.
///
/// The default policy is **no retries**: `Busy` surfaces as
/// [`ClientError::Server`] so callers that want to see backpressure
/// (tests, load generators) see it. Opt in with [`Client::set_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resends after the first `Busy` answer (0 = surface immediately).
    pub attempts: u32,
    /// Upper bound on one backoff sleep, milliseconds (the server hint is
    /// clamped to this).
    pub max_backoff_ms: u64,
}

impl RetryPolicy {
    /// Never retry; surface `Busy` to the caller. The default.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            max_backoff_ms: 0,
        }
    }

    /// Retry up to `attempts` times, sleeping the server's hint clamped
    /// to `max_backoff_ms` between sends.
    pub fn new(attempts: u32, max_backoff_ms: u64) -> RetryPolicy {
        RetryPolicy {
            attempts,
            max_backoff_ms,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The stream failed or delivered an undecodable frame.
    Transport(RecvError),
    /// The server answered with a typed error.
    Server(ServeError),
    /// The server answered with a response that does not match the
    /// request (a protocol bug, not a user error).
    Protocol(String),
    /// The server is not the owner of the digest under the fleet's
    /// consistent-hash ring and answered [`Response::Redirect`]: resend
    /// the request to `addr`. [`crate::FleetClient`] follows these
    /// automatically.
    Redirected {
        /// The owning node's advertised address.
        addr: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Redirected { addr } => write!(f, "redirected to owner {addr}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> ClientError {
        ClientError::Transport(e)
    }
}

/// Result of a successful upload.
#[derive(Debug, Clone, Copy)]
pub struct Uploaded {
    /// Content digest — the handle for [`Client::open`].
    pub digest: PinballDigest,
    /// Instructions the pinball's replay retires.
    pub instructions: u64,
    /// Whether the server already held an identical pinball.
    pub deduped: bool,
}

/// Absorption state of a streaming upload, as acknowledged by the server.
#[derive(Debug, Clone)]
pub struct StreamAck {
    /// The stream this describes.
    pub stream: u64,
    /// High-water mark: every chunk with `seq < next_seq` is absorbed.
    /// A resuming client resends from here.
    pub next_seq: u32,
    /// Out-of-order chunks buffered beyond a gap, ascending by seq.
    pub pending: Vec<u32>,
    /// Replay events decoded from the absorbed prefix.
    pub events: u64,
    /// A [`Client::begin_stream`] `expect_digest` matched a stored
    /// pinball: the body need not be sent.
    pub already_have: bool,
}

/// Live-tail progress of a stream another process is still writing.
#[derive(Debug, Clone, Copy)]
pub struct TailReply {
    /// The stream this describes.
    pub stream: u64,
    /// Contiguous chunks absorbed (the high-water mark).
    pub chunks: u32,
    /// Replay events decoded from the absorbed prefix.
    pub events: u64,
    /// Instructions the absorbed prefix retires when replayed.
    pub instructions: u64,
    /// Total events the sealed container will hold (0 before the header
    /// chunk arrives).
    pub expected_events: u64,
    /// Whether the stream has been sealed and published.
    pub sealed: bool,
    /// The published content digest, once sealed.
    pub digest: Option<PinballDigest>,
}

/// Result of a slice request.
#[derive(Debug, Clone)]
pub struct SliceReply {
    /// The slice in canonical wire form.
    pub slice: WireSlice,
    /// Whether the content-addressed cache served it.
    pub cached: bool,
    /// Server-side handling time, microseconds.
    pub micros: u64,
}

/// Result of a relog request: the slice pinball's identity and size.
#[derive(Debug, Clone, Copy)]
pub struct RelogReply {
    /// Content digest of the slice pinball — pass to [`Client::open`] to
    /// debug it or [`Client::fetch`] to download it.
    pub digest: PinballDigest,
    /// Instructions the slice pinball's replay retires.
    pub instructions: u64,
    /// Region instructions kept (slice statements + forced sync).
    pub kept: u64,
    /// Region instructions the relog excluded.
    pub excluded: u64,
    /// Whether the server's relog cache served it without rebuilding.
    pub cached: bool,
    /// Server-side handling time, microseconds.
    pub micros: u64,
}

/// A fleet node's peer map: its own advertised address, the ring's
/// virtual-node count, and everything it knows about its peers. The
/// inputs a digest-aware client needs to rebuild the owner ring locally.
#[derive(Debug, Clone)]
pub struct PeerMapReply {
    /// The answering node's advertised address.
    pub self_addr: String,
    /// Virtual nodes per member in the fleet's consistent-hash ring.
    pub virtual_nodes: u64,
    /// The answering node's view: itself first, then every known peer.
    pub nodes: Vec<NodeInfo>,
}

/// Wire-level counters of one client connection: how many exchanges ran
/// and how many encoded bytes crossed the stream in each direction
/// (frame headers included). Surfaced by [`Client::wire_stats`] so tools
/// can report what the binary wire codec actually costs per call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Request/response exchanges completed or attempted.
    pub requests: u64,
    /// Bytes written to the stream (request frames).
    pub bytes_sent: u64,
    /// Bytes read from the stream (response frames).
    pub bytes_received: u64,
    /// Exchanges resent after a [`ServeError::Busy`] answer under the
    /// client's [`RetryPolicy`].
    pub busy_retries: u64,
}

/// A `Read + Write` adapter that counts the bytes crossing it.
struct Counting<S> {
    inner: S,
    sent: u64,
    received: u64,
}

impl<S: Read> Read for Counting<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.received += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counting<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sent += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A connected protocol client. One outstanding request at a time.
pub struct Client<S: Read + Write> {
    stream: Counting<S>,
    requests: u64,
    busy_retries: u64,
    retry: RetryPolicy,
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client {
            stream: Counting {
                inner: stream,
                sent: 0,
                received: 0,
            },
            requests: 0,
            busy_retries: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Sets how [`Client::call`] reacts to [`ServeError::Busy`] answers.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Builder-style [`Client::set_retry`].
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client<S> {
        self.retry = policy;
        self
    }

    /// Wire-level byte counters accumulated since the client connected.
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            requests: self.requests,
            bytes_sent: self.stream.sent,
            bytes_received: self.stream.received,
            busy_retries: self.busy_retries,
        }
    }

    /// One request/response exchange. A [`ServeError::Busy`] answer is
    /// resent under the client's [`RetryPolicy`] (default: never),
    /// sleeping the server's backlog-scaled hint between sends; resending
    /// is safe because a shed request was never executed.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on stream failure.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            self.requests += 1;
            proto::write_message(&mut self.stream, REQUEST_KIND, request)
                .map_err(|e| ClientError::Transport(RecvError::Io(e.to_string())))?;
            let response: Response = proto::read_message(&mut self.stream, RESPONSE_KIND)?;
            if let Response::Error(ServeError::Busy { retry_after_ms }) = &response {
                if attempt < self.retry.attempts {
                    attempt += 1;
                    self.busy_retries += 1;
                    let backoff = (*retry_after_ms).min(self.retry.max_backoff_ms).max(1);
                    thread::sleep(Duration::from_millis(backoff));
                    continue;
                }
            }
            return Ok(response);
        }
    }

    /// Uploads serialized container bytes alongside the program they replay.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ServeError::Pinball`] when the
    /// container is damaged; transport errors as usual.
    pub fn upload_bytes(
        &mut self,
        program: &Program,
        container: Vec<u8>,
    ) -> Result<Uploaded, ClientError> {
        expect_uploaded(self.call(&Request::UploadPinball {
            program: program.clone(),
            container,
        })?)
    }

    /// Convenience: wraps a pinball in a container (current format) and
    /// uploads it.
    ///
    /// # Errors
    ///
    /// As for [`Client::upload_bytes`]; serialization failures surface as
    /// [`ClientError::Protocol`].
    pub fn upload(
        &mut self,
        program: &Program,
        pinball: &Pinball,
    ) -> Result<Uploaded, ClientError> {
        let bytes = PinballContainer::new(pinball.clone())
            .to_bytes()
            .map_err(|e| ClientError::Protocol(format!("container encode: {e}")))?;
        self.upload_bytes(program, bytes)
    }

    /// Opens a pooled debug session over an uploaded pinball.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPinball`] if the digest was never uploaded;
    /// [`ServeError::Busy`] under backpressure.
    pub fn open(&mut self, digest: PinballDigest) -> Result<SessionId, ClientError> {
        match self.call(&Request::OpenSession { digest })? {
            Response::SessionOpened { session } => Ok(session),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    /// Sets a breakpoint, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn add_breakpoint(
        &mut self,
        session: SessionId,
        pc: Pc,
        tid: Option<Tid>,
    ) -> Result<u32, ClientError> {
        expect_id(self.call(&Request::Break { session, pc, tid })?)
    }

    /// Sets a watchpoint on a memory word, returning its id (breakpoints
    /// and watchpoints share one id space).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn watch(&mut self, session: SessionId, addr: Addr) -> Result<u32, ClientError> {
        expect_id(self.call(&Request::Watch { session, addr })?)
    }

    /// Deletes a breakpoint or watchpoint.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the session has no such id.
    pub fn delete(&mut self, session: SessionId, id: u32) -> Result<(), ClientError> {
        expect_id(self.call(&Request::Delete { session, id })?).map(drop)
    }

    /// Continues replay to the next stop event.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn run(&mut self, session: SessionId) -> Result<(WireStop, u64), ClientError> {
        expect_stop(self.call(&Request::Run { session })?)
    }

    /// Seeks to the state after `target` retired instructions.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn seek(
        &mut self,
        session: SessionId,
        target: u64,
    ) -> Result<(WireStop, u64), ClientError> {
        expect_stop(self.call(&Request::Seek { session, target })?)
    }

    /// Steps one instruction forward.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn stepi(&mut self, session: SessionId) -> Result<(WireStop, u64), ClientError> {
        expect_stop(self.call(&Request::StepI { session })?)
    }

    /// Steps one instruction backward.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn reverse_stepi(&mut self, session: SessionId) -> Result<(WireStop, u64), ClientError> {
        expect_stop(self.call(&Request::ReverseStepI { session })?)
    }

    /// Runs backward to the most recent breakpoint or watchpoint hit, or
    /// to the region entry.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn reverse_run(&mut self, session: SessionId) -> Result<(WireStop, u64), ClientError> {
        expect_stop(self.call(&Request::ReverseRun { session })?)
    }

    /// Reads one register of one thread at the session's position.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a thread the replay has not created
    /// or a register past [`minivm::isa::NUM_REGS`].
    pub fn read_reg(&mut self, session: SessionId, tid: Tid, reg: Reg) -> Result<i64, ClientError> {
        expect_value(self.call(&Request::ReadReg { session, tid, reg })?)
    }

    /// Reads one memory word at the session's position.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn read_mem(&mut self, session: SessionId, addr: Addr) -> Result<i64, ClientError> {
        expect_value(self.call(&Request::ReadMem { session, addr })?)
    }

    /// Lists the replay's threads as `(tid, pc, runnable)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn threads(&mut self, session: SessionId) -> Result<Vec<(Tid, Pc, bool)>, ClientError> {
        match self.call(&Request::Threads { session })? {
            Response::Threads { threads } => Ok(threads),
            other => Err(unexpected("Threads", &other)),
        }
    }

    /// Computes (or fetches from the server's cache) a dynamic slice.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `at` cannot be resolved (e.g.
    /// `Here` while not stopped); [`ServeError::UnknownSession`] for a
    /// dead session handle.
    pub fn compute_slice(
        &mut self,
        session: SessionId,
        at: SliceAt,
        options: SliceOptions,
    ) -> Result<SliceReply, ClientError> {
        expect_slice(self.call(&Request::ComputeSlice {
            session,
            at,
            options,
        })?)
    }

    /// Relogs a dynamic slice into a server-stored *slice pinball* and
    /// returns its content digest. The result is cached server-side by
    /// (pinball, criterion, options), so repeating the request answers
    /// from the cache with the same digest.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `at` cannot be resolved;
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn relog(
        &mut self,
        session: SessionId,
        at: SliceAt,
        options: SliceOptions,
    ) -> Result<RelogReply, ClientError> {
        expect_relogged(self.call(&Request::Relog {
            session,
            at,
            options,
        })?)
    }

    /// Downloads a stored pinball container (an upload or a relogged
    /// slice pinball) as serialized bytes, loadable with
    /// [`PinballContainer::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPinball`] if the digest is not stored.
    pub fn fetch(&mut self, digest: PinballDigest) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::FetchPinball { digest })? {
            Response::PinballData { container, .. } => Ok(container),
            other => Err(unexpected("PinballData", &other)),
        }
    }

    /// Lists the breakpoints set in a session, ascending by id.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead session handle.
    pub fn break_list(&mut self, session: SessionId) -> Result<Vec<WireBreakpoint>, ClientError> {
        match self.call(&Request::BreakList { session })? {
            Response::Breakpoints { breakpoints, .. } => Ok(breakpoints),
            other => Err(unexpected("Breakpoints", &other)),
        }
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Closes a session, freeing its pool slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if it is already gone.
    pub fn close(&mut self, session: SessionId) -> Result<(), ClientError> {
        match self.call(&Request::CloseSession { session })? {
            Response::Closed { .. } => Ok(()),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Asks whether the server already stores a pinball with `digest` —
    /// the digest-first dedupe probe a client sends before paying to
    /// transfer the body.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn probe(&mut self, digest: PinballDigest) -> Result<bool, ClientError> {
        match self.call(&Request::ProbePinball { digest })? {
            Response::Probed { known, .. } => Ok(known),
            other => Err(unexpected("Probed", &other)),
        }
    }

    /// Fetches the node's peer map — the fleet membership view a
    /// digest-aware client routes by. A standalone (non-fleet) node
    /// answers with an empty view.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn peer_map(&mut self) -> Result<PeerMapReply, ClientError> {
        expect_peer_view(self.call(&Request::PeerMap)?)
    }

    /// One anti-entropy exchange: offers `view` and returns the node's
    /// merged view. Used by the gossip thread; exposed for tools that
    /// want to inject membership (e.g. tests).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn gossip(&mut self, view: Vec<NodeInfo>) -> Result<PeerMapReply, ClientError> {
        expect_peer_view(self.call(&Request::Gossip { view })?)
    }

    /// Peer-to-peer slice with a pre-resolved criterion, executed locally
    /// by the receiver (never re-forwarded). Used by non-owner nodes to
    /// forward to the digest's owner.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPinball`] when the receiver does not store
    /// the digest (the forwarder then pushes the container and retries).
    pub fn peer_slice(
        &mut self,
        digest: PinballDigest,
        criterion: Criterion,
        options: SliceOptions,
    ) -> Result<SliceReply, ClientError> {
        expect_slice(self.call(&Request::PeerSlice {
            digest,
            criterion,
            options,
        })?)
    }

    /// Peer-to-peer relog with a pre-resolved criterion, executed locally
    /// by the receiver (never re-forwarded).
    ///
    /// # Errors
    ///
    /// As for [`Client::peer_slice`].
    pub fn peer_relog(
        &mut self,
        digest: PinballDigest,
        criterion: Criterion,
        options: SliceOptions,
    ) -> Result<RelogReply, ClientError> {
        expect_relogged(self.call(&Request::PeerRelog {
            digest,
            criterion,
            options,
        })?)
    }

    /// Peer-to-peer store probe, answered from the receiver's local store
    /// only (never forwarded) — the transfer-dedupe check a node runs
    /// before pulling a container from a peer.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn peer_probe(&mut self, digest: PinballDigest) -> Result<bool, ClientError> {
        match self.call(&Request::PeerProbe { digest })? {
            Response::Probed { known, .. } => Ok(known),
            other => Err(unexpected("Probed", &other)),
        }
    }

    /// Downloads a stored pinball *with its program* from the receiver's
    /// local store only (never forwarded) — the peer fetch-through and
    /// re-warm primitive.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPinball`] when the receiver does not store
    /// the digest locally.
    pub fn fetch_stored(
        &mut self,
        digest: PinballDigest,
    ) -> Result<(Program, Vec<u8>), ClientError> {
        match self.call(&Request::FetchStored { digest })? {
            Response::StoredData {
                program, container, ..
            } => Ok((program, container)),
            other => Err(unexpected("StoredData", &other)),
        }
    }

    /// Opens — or, after a reconnect, resumes — a streaming upload. The
    /// ack's `next_seq` is the high-water mark to resend from; its
    /// `already_have` means `expect_digest` matched a stored pinball and
    /// the body can be skipped.
    ///
    /// # Errors
    ///
    /// Transport errors; [`ServeError::Busy`] under backpressure.
    pub fn begin_stream(
        &mut self,
        stream: u64,
        program: &Program,
        expect_digest: Option<PinballDigest>,
    ) -> Result<StreamAck, ClientError> {
        expect_ack(self.call(&Request::BeginStream {
            stream,
            program: program.clone(),
            expect_digest,
        })?)
    }

    /// Appends one chunk at `seq`. Out-of-order sends are buffered
    /// server-side; duplicates below the acked high-water mark are
    /// acknowledged idempotently, so blind resends after a reconnect are
    /// safe.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStream`] when the stream was never begun (or
    /// was dropped after damage); [`ServeError::Pinball`] when the chunk
    /// bytes fail to decode.
    pub fn append_chunk(
        &mut self,
        stream: u64,
        seq: u32,
        bytes: Vec<u8>,
    ) -> Result<StreamAck, ClientError> {
        expect_ack(self.call(&Request::AppendChunk { stream, seq, bytes })?)
    }

    /// Seals a stream: the server absorbs the footer, validates the
    /// reassembled container, and publishes it under its content digest.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] while chunks are still missing;
    /// [`ServeError::Pinball`] when validation fails.
    pub fn seal_stream(&mut self, stream: u64, footer: Vec<u8>) -> Result<Uploaded, ClientError> {
        expect_uploaded(self.call(&Request::SealStream { stream, footer })?)
    }

    /// Reports a stream's absorption state without changing it — the
    /// reconnect probe a resuming uploader sends first.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStream`] when the stream does not exist.
    pub fn stream_status(&mut self, stream: u64) -> Result<StreamAck, ClientError> {
        expect_ack(self.call(&Request::StreamStatus { stream })?)
    }

    /// Polls live-tail progress of a stream another process is writing.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStream`] when the stream does not exist.
    pub fn tail(&mut self, stream: u64) -> Result<TailReply, ClientError> {
        match self.call(&Request::Tail { stream })? {
            Response::TailUpdate {
                stream,
                chunks,
                events,
                instructions,
                expected_events,
                sealed,
                digest,
            } => Ok(TailReply {
                stream,
                chunks,
                events,
                instructions,
                expected_events,
                sealed,
                digest,
            }),
            other => Err(unexpected("TailUpdate", &other)),
        }
    }

    /// Slices the prefix of a stream absorbed so far, without waiting for
    /// the seal. The server grows its dependence index incrementally, so
    /// repeated slices as the stream fills pay only for the new suffix.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the criterion is not yet in the
    /// absorbed prefix; [`ServeError::UnknownStream`] as usual.
    pub fn slice_stream(
        &mut self,
        stream: u64,
        at: SliceAt,
        options: SliceOptions,
    ) -> Result<SliceReply, ClientError> {
        expect_slice(self.call(&Request::SliceStream {
            stream,
            at,
            options,
        })?)
    }

    /// Streams a container to the server in `chunks` resumable pieces:
    /// digest-first dedupe (a known digest skips the body entirely),
    /// resume from the server's high-water mark, then seal. Returns the
    /// same [`Uploaded`] a batch [`Client::upload_bytes`] would — and the
    /// same digest, byte for byte. The stream id is the digest itself, so
    /// a client retrying after a crash resumes its own upload.
    ///
    /// # Errors
    ///
    /// As for [`Client::upload_bytes`]; serialization failures surface as
    /// [`ClientError::Protocol`].
    pub fn upload_streamed(
        &mut self,
        program: &Program,
        container: &PinballContainer,
        chunks: usize,
    ) -> Result<Uploaded, ClientError> {
        let writer = StreamWriter::new(container)
            .map_err(|e| ClientError::Protocol(format!("container encode: {e}")))?;
        let digest = writer.digest();
        let stream = digest.0;
        let ack = self.begin_stream(stream, program, Some(digest))?;
        if ack.already_have {
            return Ok(Uploaded {
                digest,
                instructions: writer.instructions(),
                deduped: true,
            });
        }
        let pieces = writer.chunks(chunks);
        for (seq, piece) in pieces.iter().enumerate().skip(ack.next_seq as usize) {
            self.append_chunk(stream, seq as u32, piece.to_vec())?;
        }
        self.seal_stream(stream, writer.footer().to_vec())
    }
}

fn expect_uploaded(response: Response) -> Result<Uploaded, ClientError> {
    match response {
        Response::Uploaded {
            digest,
            instructions,
            deduped,
        } => Ok(Uploaded {
            digest,
            instructions,
            deduped,
        }),
        other => Err(unexpected("Uploaded", &other)),
    }
}

fn expect_slice(response: Response) -> Result<SliceReply, ClientError> {
    match response {
        Response::Slice {
            slice,
            cached,
            micros,
        } => Ok(SliceReply {
            slice,
            cached,
            micros,
        }),
        other => Err(unexpected("Slice", &other)),
    }
}

fn expect_relogged(response: Response) -> Result<RelogReply, ClientError> {
    match response {
        Response::Relogged {
            digest,
            instructions,
            kept,
            excluded,
            cached,
            micros,
        } => Ok(RelogReply {
            digest,
            instructions,
            kept,
            excluded,
            cached,
            micros,
        }),
        other => Err(unexpected("Relogged", &other)),
    }
}

fn expect_id(response: Response) -> Result<u32, ClientError> {
    match response {
        Response::BreakpointSet { id } => Ok(id),
        other => Err(unexpected("BreakpointSet", &other)),
    }
}

fn expect_stop(response: Response) -> Result<(WireStop, u64), ClientError> {
    match response {
        Response::Stopped { reason, position } => Ok((reason, position)),
        other => Err(unexpected("Stopped", &other)),
    }
}

fn expect_value(response: Response) -> Result<i64, ClientError> {
    match response {
        Response::Value { value } => Ok(value),
        other => Err(unexpected("Value", &other)),
    }
}

fn expect_ack(response: Response) -> Result<StreamAck, ClientError> {
    match response {
        Response::StreamAck {
            stream,
            next_seq,
            pending,
            events,
            already_have,
        } => Ok(StreamAck {
            stream,
            next_seq,
            pending,
            events,
            already_have,
        }),
        other => Err(unexpected("StreamAck", &other)),
    }
}

fn expect_peer_view(response: Response) -> Result<PeerMapReply, ClientError> {
    match response {
        Response::PeerView {
            self_addr,
            virtual_nodes,
            nodes,
        } => Ok(PeerMapReply {
            self_addr,
            virtual_nodes,
            nodes,
        }),
        other => Err(unexpected("PeerView", &other)),
    }
}

fn unexpected(want: &str, got: &Response) -> ClientError {
    match got {
        Response::Error(e) => ClientError::Server(e.clone()),
        Response::Redirect { addr } => ClientError::Redirected { addr: addr.clone() },
        other => ClientError::Protocol(format!("expected {want}, got {other:?}")),
    }
}
