//! The drserve front end: nonblocking transports over the sharded
//! [`Service`].
//!
//! The server is two layers. The [`Service`] (in [`crate::service`]) is
//! the whole protocol — sharded workers, admission control, batching — and
//! never touches a socket. This module is the I/O in front of it: a
//! nonblocking accept loop hands connections to a small pool of
//! *dispatcher* threads, each multiplexing many connections: it reads
//! whatever bytes arrived, carves complete request frames out with
//! [`proto::frame_extent`], submits them to the service (which routes each
//! to its shard), and writes replies back in request order as the shards
//! finish — so one slow slice on a connection never parks a thread, and a
//! pipelined client can have many requests in flight.
//!
//! Both transports — TCP ([`Server::listen`] / [`connect`]) and the
//! in-process loopback pipe ([`Server::loopback_client`] /
//! [`Server::loopback_connect`]) — feed the same dispatchers through the
//! `NonblockStream` trait, so tests and benchmarks exercise the real
//! multiplexing without sockets.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::client::Client;
use crate::loopback::{pipe, LoopbackStream};
use crate::proto::{
    self, RecvError, Request, Response, ServeError, ServeStats, REQUEST_KIND, RESPONSE_KIND,
};
use crate::service::{Reply, Service};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum live debug sessions *per shard* (pool capacity).
    pub max_sessions: usize,
    /// Idle time after which a session may be reclaimed.
    pub idle_timeout: Duration,
    /// Maximum cached slices per shard.
    pub cache_capacity: usize,
    /// Maximum cached dependence indexes per shard (one per pinball digest
    /// and options fingerprint; each costs memory proportional to the
    /// trace).
    pub index_cache_capacity: usize,
    /// Maximum cached relog outcomes per shard (one per pinball digest,
    /// criterion, and options fingerprint; the slice pinballs themselves
    /// live in the content-addressed store).
    pub relog_cache_capacity: usize,
    /// Base back-off hint attached to [`ServeError::Busy`] rejections; the
    /// admission controller scales it up to 5× with queue depth
    /// ([`crate::service::retry_hint`]).
    pub retry_after_ms: u64,
    /// Worker shards, each with its own session pool, caches, and metrics.
    /// `0` (the default) sizes to the machine: one per CPU, capped at 8.
    pub shards: usize,
    /// Dispatcher threads multiplexing connection I/O. `0` (the default)
    /// sizes to the machine.
    pub dispatchers: usize,
    /// Per-shard queue bound: admitted-but-unfinished requests beyond this
    /// are load-shed with [`ServeError::Busy`] instead of queueing.
    pub queue_capacity: usize,
    /// Most requests one worker wakeup drains. Requests batched together
    /// share one `Stats` rollup and one encoded response frame.
    pub batch_max: usize,
    /// Seed peer addresses for fleet membership. Non-empty peers enable
    /// cluster mode at [`Server::listen`] time: the node gossips with the
    /// seeds, learns the full peer map, and joins the consistent-hash
    /// ring over pinball digests.
    pub peers: Vec<String>,
    /// The address this node advertises to the fleet (what its ring
    /// points hash from). `None` uses the actual bound address — fine on
    /// one host; set it explicitly behind NAT or when binding `0.0.0.0`.
    pub advertise: Option<String>,
    /// Forces cluster mode on even with no seeds — the bootstrap node of
    /// a fresh fleet, which has nobody to gossip with until peers dial in.
    pub cluster: bool,
    /// Virtual nodes per member on the consistent-hash ring. More points
    /// flatten the keyspace imbalance (≈ `1/N + O(1/√(NV))`) at a small
    /// ring-build cost.
    pub virtual_nodes: usize,
    /// Anti-entropy period: how often the gossip thread bumps its
    /// heartbeat and exchanges views with one peer.
    pub gossip_interval: Duration,
    /// Liveness timeout: a peer whose heartbeat makes no progress for
    /// this long is marked dead (transport failures mark it dead sooner).
    pub peer_fail_after: Duration,
    /// Connect timeout for pooled peer connections.
    pub peer_connect_timeout: Duration,
    /// Read/write timeout for one forwarded peer operation (a cold slice
    /// at the owner can legitimately take a while).
    pub peer_op_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_sessions: 8,
            idle_timeout: Duration::from_secs(300),
            cache_capacity: 256,
            index_cache_capacity: 32,
            relog_cache_capacity: 32,
            retry_after_ms: 50,
            shards: 0,
            dispatchers: 0,
            queue_capacity: 512,
            batch_max: 32,
            peers: Vec::new(),
            advertise: None,
            cluster: false,
            virtual_nodes: 64,
            gossip_interval: Duration::from_millis(500),
            peer_fail_after: Duration::from_millis(2500),
            peer_connect_timeout: Duration::from_secs(1),
            peer_op_timeout: Duration::from_secs(10),
        }
    }
}

/// A byte stream the dispatcher can poll without blocking. Both real
/// sockets and the in-process loopback pipe qualify.
trait NonblockStream: Read + Write + Send {
    /// Switches the stream between blocking and nonblocking reads.
    fn set_nonblocking_mode(&self, nonblocking: bool) -> io::Result<()>;
}

impl NonblockStream for TcpStream {
    fn set_nonblocking_mode(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl NonblockStream for LoopbackStream {
    fn set_nonblocking_mode(&self, nonblocking: bool) -> io::Result<()> {
        LoopbackStream::set_nonblocking(self, nonblocking)
    }
}

/// A reply slot in a connection's in-order response queue.
// One slot per pipelined request; boxing the ready response to shrink
// the enum would cost an allocation on the shed/malformed path.
#[allow(clippy::large_enum_variant)]
enum Pending {
    /// Answered at submit time (admission shed, malformed frame).
    Ready(Response),
    /// In flight on a worker shard.
    Wait(Receiver<Reply>),
}

/// One multiplexed connection: buffered reads, buffered writes, and the
/// in-order queue of outstanding replies. Replies are written strictly in
/// request order even though shards finish out of order.
struct Conn {
    stream: Box<dyn NonblockStream>,
    rd: Vec<u8>,
    wr: Vec<u8>,
    /// Bytes of `wr` already flushed to the stream.
    wr_at: usize,
    pending: VecDeque<Pending>,
    /// Stop reading (peer EOF or framing desync); drop the connection once
    /// every pending reply has been written out.
    closing: bool,
}

impl Conn {
    fn new(stream: Box<dyn NonblockStream>) -> Conn {
        Conn {
            stream,
            rd: Vec::new(),
            wr: Vec::new(),
            wr_at: 0,
            pending: VecDeque::new(),
            closing: false,
        }
    }

    /// One poll round: harvest finished replies, flush, read, decode,
    /// submit. Returns `false` when the connection should be dropped;
    /// sets `progress` when any byte or reply moved.
    fn poll(&mut self, service: &Service, scratch: &mut [u8], progress: &mut bool) -> bool {
        // Move completed replies — strictly from the front, preserving
        // request order — into the write buffer.
        loop {
            match self.pending.front_mut() {
                Some(Pending::Ready(_)) => {
                    let Some(Pending::Ready(response)) = self.pending.pop_front() else {
                        unreachable!("front was Ready");
                    };
                    let _ = proto::write_message(&mut self.wr, RESPONSE_KIND, &response);
                    *progress = true;
                }
                Some(Pending::Wait(rx)) => match rx.try_recv() {
                    Ok(Reply::Response(response)) => {
                        self.pending.pop_front();
                        let _ = proto::write_message(&mut self.wr, RESPONSE_KIND, &response);
                        *progress = true;
                    }
                    Ok(Reply::Frame(frame)) => {
                        self.pending.pop_front();
                        self.wr.extend_from_slice(&frame);
                        *progress = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    // Worker gone mid-request: service shutdown.
                    Err(TryRecvError::Disconnected) => return false,
                },
                None => break,
            }
        }
        // Flush as much of the write buffer as the stream accepts.
        while self.wr_at < self.wr.len() {
            match self.stream.write(&self.wr[self.wr_at..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wr_at += n;
                    *progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wr_at == self.wr.len() && self.wr_at > 0 {
            self.wr.clear();
            self.wr_at = 0;
        }
        if self.closing {
            // Linger only until every reply is out.
            return !(self.pending.is_empty() && self.wr.is_empty());
        }
        // Read whatever arrived.
        loop {
            match self.stream.read(scratch) {
                // EOF: answer what is already in flight, then drop.
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    self.rd.extend_from_slice(&scratch[..n]);
                    *progress = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // Carve out and submit every complete frame — a pipelining client
        // gets all of them in flight across the shards at once.
        let mut consumed = 0;
        loop {
            match proto::try_decode::<Request>(&self.rd[consumed..], REQUEST_KIND) {
                Ok(None) => break,
                Ok(Some((request, used))) => {
                    consumed += used;
                    *progress = true;
                    match service.submit(request, true) {
                        Ok(rx) => self.pending.push_back(Pending::Wait(rx)),
                        // Shed at admission: the typed Busy goes out in
                        // order like any other reply.
                        Err(e) => self.pending.push_back(Pending::Ready(Response::Error(e))),
                    }
                }
                Err(RecvError::Frame { reason }) | Err(RecvError::Io(reason)) => {
                    // Framing is out of sync: answer, flush, disconnect.
                    service.observe_malformed();
                    self.pending.push_back(Pending::Ready(Response::Error(
                        ServeError::Malformed { reason },
                    )));
                    self.closing = true;
                    self.rd.clear();
                    consumed = 0;
                    *progress = true;
                    break;
                }
                Err(RecvError::Disconnected) => {
                    self.closing = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            self.rd.drain(..consumed);
        }
        true
    }
}

/// The dispatcher pool: D threads, each polling its own set of
/// connections. New connections are dealt round-robin.
struct DispatchPool {
    txs: Vec<Sender<Box<dyn NonblockStream>>>,
    rr: AtomicUsize,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl DispatchPool {
    fn new(service: Service, dispatchers: usize) -> DispatchPool {
        let stop = Arc::new(AtomicBool::new(false));
        let mut txs = Vec::with_capacity(dispatchers);
        let mut threads = Vec::with_capacity(dispatchers);
        for _ in 0..dispatchers {
            let (tx, rx) = channel::<Box<dyn NonblockStream>>();
            txs.push(tx);
            let service = service.clone();
            let stop = Arc::clone(&stop);
            threads.push(thread::spawn(move || dispatcher_loop(&service, &rx, &stop)));
        }
        DispatchPool {
            txs,
            rr: AtomicUsize::new(0),
            stop,
            threads: Mutex::new(threads),
        }
    }

    /// Assigns a connection to a dispatcher.
    fn register(&self, stream: Box<dyn NonblockStream>) {
        let ix = self.rr.fetch_add(1, Ordering::Relaxed) % self.txs.len();
        let _ = self.txs[ix].send(stream);
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.txs.clear();
        for handle in self
            .threads
            .lock()
            .expect("dispatch handles lock")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// One dispatcher thread: accept handed-off connections, poll them all,
/// back off briefly when nothing moves.
fn dispatcher_loop(
    service: &Service,
    incoming: &Receiver<Box<dyn NonblockStream>>,
    stop: &AtomicBool,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // Spin-then-sleep idle ladder: a handful of yields keeps single-client
    // round-trip latency low (the reply is usually ready within
    // microseconds); persistent idleness drops to a short sleep so an idle
    // server costs ~no CPU.
    let mut idle_rounds = 0u32;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        loop {
            match incoming.try_recv() {
                Ok(stream) => {
                    let _ = stream.set_nonblocking_mode(true);
                    conns.push(Conn::new(stream));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }
        let mut progress = false;
        conns.retain_mut(|conn| conn.poll(service, &mut scratch, &mut progress));
        if progress {
            idle_rounds = 0;
        } else {
            idle_rounds = idle_rounds.saturating_add(1);
            if idle_rounds < 64 {
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// A replay-and-slice server: the sharded [`Service`] plus its dispatcher
/// pool. Cheap to clone; all clones share state.
///
/// Field order is load-bearing for shutdown: dispatchers drop (and join)
/// first, releasing their `Service` clones, then the service's own drop
/// joins the worker shards.
#[derive(Clone)]
pub struct Server {
    dispatch: Arc<DispatchPool>,
    service: Service,
}

impl Server {
    /// Creates a server with the given tuning: one worker thread per
    /// shard, plus the dispatcher pool.
    pub fn new(config: ServeConfig) -> Server {
        let dispatchers = if config.dispatchers > 0 {
            config.dispatchers
        } else {
            (thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                / 2)
            .clamp(1, 4)
        };
        let service = Service::new(config);
        let dispatch = Arc::new(DispatchPool::new(service.clone(), dispatchers));
        Server { dispatch, service }
    }

    /// The sharded service behind this server.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Handles one request on the calling thread's behalf — submitted to
    /// the owning shard like any other request, blocking until the worker
    /// answers. Never panics on bad input: every failure (including an
    /// admission shed) is a typed [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        self.service.call(request)
    }

    /// Current metrics snapshot (also served as [`Response::Stats`]):
    /// the cross-shard rollup with the per-shard breakdown attached.
    pub fn stats(&self) -> ServeStats {
        self.service.stats()
    }

    /// Binds a TCP listener and serves connections through the dispatcher
    /// pool until [`ServerHandle::shutdown`]. The accept loop is
    /// nonblocking; accepted sockets are multiplexed, not given threads.
    ///
    /// When the config names seed [`ServeConfig::peers`], an
    /// [`ServeConfig::advertise`] address, or sets
    /// [`ServeConfig::cluster`], the node joins the fleet here: the
    /// advertise address defaults to the bound one, and the gossip thread
    /// starts alongside the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn listen<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let config = self.service.config();
        if config.cluster || !config.peers.is_empty() || config.advertise.is_some() {
            let advertise = config
                .advertise
                .clone()
                .unwrap_or_else(|| local_addr.to_string());
            let seeds = config.peers.clone();
            self.service.enable_cluster(advertise, seeds);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let dispatch = Arc::clone(&self.dispatch);
        let accept = thread::spawn(move || {
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((socket, _peer)) => {
                        let _ = socket.set_nodelay(true);
                        dispatch.register(Box::new(socket));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ServerHandle {
            addr: local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Opens a raw in-process connection to this server: the returned
    /// stream speaks the full wire protocol against the dispatcher pool.
    /// Unlike [`Server::loopback_client`] there is no typed client in the
    /// way, so callers can pipeline many request frames before reading
    /// replies — the saturation gate's load generator.
    pub fn loopback_connect(&self) -> LoopbackStream {
        let (client_end, server_end) = pipe();
        self.dispatch.register(Box::new(server_end));
        client_end
    }

    /// Connects a [`Client`] to this server through an in-process pipe —
    /// the full wire protocol, multiplexed by the dispatcher pool exactly
    /// like a TCP connection.
    pub fn loopback_client(&self) -> Client<LoopbackStream> {
        Client::new(self.loopback_connect())
    }
}

/// A running TCP front end. Dropping the handle shuts the listener down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Connections already
    /// handed to the dispatchers keep being served until the server
    /// itself drops.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Connects a TCP [`Client`] to a listening server.
///
/// # Errors
///
/// Returns the connect error if the server is unreachable.
pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(Client::new(stream))
}
