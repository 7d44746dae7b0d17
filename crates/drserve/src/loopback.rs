//! In-process byte-stream transport: a pair of connected duplex endpoints.
//!
//! [`pipe`] returns two [`LoopbackStream`]s wired head-to-tail: bytes
//! written to one are read from the other, with blocking reads and
//! EOF-on-drop semantics — exactly the contract `TcpStream` gives the
//! protocol layer, minus the socket. Tests and benchmarks drive a real
//! server through the real framing without touching the network, and the
//! server code cannot tell the difference (both transports are just
//! `Read + Write`).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One direction of the pipe: a bounded-ish byte queue plus liveness.
struct Half {
    state: Mutex<HalfState>,
    readable: Condvar,
}

struct HalfState {
    buf: VecDeque<u8>,
    /// Set when the writing end is dropped; readers drain then see EOF.
    closed: bool,
}

impl Half {
    fn new() -> Arc<Half> {
        Arc::new(Half {
            state: Mutex::new(HalfState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }
}

/// One endpoint of an in-process duplex byte stream.
///
/// Reading blocks until the peer writes or hangs up; writing never blocks
/// (the queue is unbounded — protocol messages are request/response, so at
/// most one message is in flight per direction). Dropping an endpoint
/// closes *both* directions it touches: the peer's pending read drains the
/// remaining bytes and then sees EOF, and the peer's writes fail with
/// [`io::ErrorKind::BrokenPipe`].
pub struct LoopbackStream {
    rx: Arc<Half>,
    tx: Arc<Half>,
    nonblocking: AtomicBool,
}

/// Creates a connected pair of in-process streams.
pub fn pipe() -> (LoopbackStream, LoopbackStream) {
    let a = Half::new();
    let b = Half::new();
    (
        LoopbackStream {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
            nonblocking: AtomicBool::new(false),
        },
        LoopbackStream {
            rx: b,
            tx: a,
            nonblocking: AtomicBool::new(false),
        },
    )
}

impl LoopbackStream {
    /// Switches this endpoint between blocking and nonblocking reads,
    /// mirroring [`std::net::TcpStream::set_nonblocking`]. In nonblocking
    /// mode a read with no buffered bytes returns
    /// [`io::ErrorKind::WouldBlock`] instead of parking on the condvar;
    /// writes never block in either mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.nonblocking.store(nonblocking, Ordering::Relaxed);
        Ok(())
    }

    /// Half-closes the write direction, mirroring
    /// [`std::net::TcpStream::shutdown`] with [`std::net::Shutdown::Write`]:
    /// the peer drains what was written and then reads EOF, while this
    /// endpoint can still read the peer's replies. Later writes fail with
    /// [`io::ErrorKind::BrokenPipe`].
    pub fn shutdown_write(&self) {
        self.tx.close();
    }
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                // Bulk-copy from the deque's (up to two) contiguous runs;
                // byte-at-a-time popping dominates profiles under load.
                let (head, tail) = state.buf.as_slices();
                if n <= head.len() {
                    buf[..n].copy_from_slice(&head[..n]);
                } else {
                    buf[..head.len()].copy_from_slice(head);
                    buf[head.len()..n].copy_from_slice(&tail[..n - head.len()]);
                }
                state.buf.drain(..n);
                return Ok(n);
            }
            if state.closed {
                return Ok(0); // EOF
            }
            if self.nonblocking.load(Ordering::Relaxed) {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "loopback read would block",
                ));
            }
            state = self.rx.readable.wait(state).expect("pipe lock");
        }
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer hung up",
            ));
        }
        state.buf.extend(buf);
        self.tx.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackStream {
    fn drop(&mut self) {
        // Wake the peer's blocked read (EOF) and fail its future writes.
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = pipe();
        a.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"pong");
    }

    #[test]
    fn drop_unblocks_reader_with_eof() {
        let (a, mut b) = pipe();
        let reader = thread::spawn(move || {
            let mut buf = Vec::new();
            b.read_to_end(&mut buf).unwrap();
            buf
        });
        drop(a);
        assert!(reader.join().unwrap().is_empty());
    }

    #[test]
    fn pending_bytes_drain_before_eof() {
        let (mut a, mut b) = pipe();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert!(b.write_all(b"x").is_err(), "write to hung-up peer fails");
    }

    #[test]
    fn shutdown_write_is_a_half_close() {
        let (mut a, mut b) = pipe();
        a.write_all(b"last").unwrap();
        a.shutdown_write();
        assert!(a.write_all(b"x").is_err(), "writes after shutdown fail");
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"last", "peer drains, then reads EOF");
        b.write_all(b"reply").unwrap();
        drop(b);
        let mut got = Vec::new();
        a.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"reply", "the read direction stays open");
    }

    #[test]
    fn nonblocking_read_returns_would_block() {
        let (mut a, mut b) = pipe();
        b.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        a.write_all(b"data").unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"data");
        drop(a);
        // EOF still wins over WouldBlock once the peer hangs up.
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (mut a, mut b) = pipe();
        let reader = thread::spawn(move || {
            let mut got = [0u8; 5];
            b.read_exact(&mut got).unwrap();
            got
        });
        thread::sleep(std::time::Duration::from_millis(20));
        a.write_all(b"hello").unwrap();
        assert_eq!(&reader.join().unwrap(), b"hello");
    }
}
