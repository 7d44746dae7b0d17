//! Session pool: bounded, LRU-evicting, idle-expiring.
//!
//! A [`drdebug::DebugSession`] is heavyweight — it owns a replaying VM,
//! checkpoints, and (once a slice has been requested) a collected
//! dependence trace. The pool caps how many are live at once. When a new
//! open would exceed the cap, the pool first expires sessions idle past
//! the timeout, then evicts the least-recently-used *idle* session; if
//! every slot is actively locked by a request, the open is rejected with
//! [`ServeError::Busy`] and a retry hint — backpressure, never an
//! unbounded queue.
//!
//! Sessions are handed out as `Arc<Mutex<DebugSession>>`: the caller
//! clones the `Arc` and drops the pool lock before locking the session,
//! so a long `cont()` or slice collection in one session never blocks
//! requests against other sessions. A slot whose `Arc` strong count is 1
//! is provably not mid-request and is safe to evict.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drdebug::DebugSession;
use pinplay::PinballDigest;

use crate::proto::{ServeError, SessionId, SessionStats};

/// One pooled session.
struct Slot {
    session: Arc<Mutex<DebugSession>>,
    digest: PinballDigest,
    last_used: Instant,
}

struct PoolInner {
    slots: HashMap<SessionId, Slot>,
    next_id: SessionId,
    opened_total: u64,
    evicted_lru: u64,
    expired_idle: u64,
    rejected_busy: u64,
}

/// Bounded pool of debug sessions with LRU eviction and idle expiry.
pub struct SessionManager {
    inner: Mutex<PoolInner>,
    max_sessions: usize,
    idle_timeout: Duration,
    retry_after_ms: u64,
    id_stride: u64,
}

impl SessionManager {
    /// Creates a pool admitting at most `max_sessions` (min 1) live
    /// sessions, expiring those idle longer than `idle_timeout`.
    pub fn new(max_sessions: usize, idle_timeout: Duration, retry_after_ms: u64) -> SessionManager {
        SessionManager::with_ids(max_sessions, idle_timeout, retry_after_ms, 1, 1)
    }

    /// Like [`SessionManager::new`], but allocating session ids from the
    /// arithmetic sequence `first, first + stride, first + 2·stride, …`.
    ///
    /// A sharded server gives shard `s` of `n` the sequence starting at
    /// `n + s` with stride `n`, so every id this pool hands out satisfies
    /// `id % n == s` — the dispatcher can route a session-scoped request
    /// to the owning shard from the id alone, with no shared lookup table.
    pub fn with_ids(
        max_sessions: usize,
        idle_timeout: Duration,
        retry_after_ms: u64,
        first_id: SessionId,
        id_stride: u64,
    ) -> SessionManager {
        SessionManager {
            inner: Mutex::new(PoolInner {
                slots: HashMap::new(),
                next_id: first_id.max(1),
                opened_total: 0,
                evicted_lru: 0,
                expired_idle: 0,
                rejected_busy: 0,
            }),
            max_sessions: max_sessions.max(1),
            idle_timeout,
            retry_after_ms,
            id_stride: id_stride.max(1),
        }
    }

    /// Opens a session, building it with `make` only once admission is
    /// certain.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] when the pool is full and every session is
    /// mid-request (nothing evictable).
    pub fn open(
        &self,
        digest: PinballDigest,
        make: impl FnOnce() -> DebugSession,
    ) -> Result<SessionId, ServeError> {
        let mut inner = self.inner.lock().expect("pool lock");
        self.sweep_idle(&mut inner);
        if inner.slots.len() >= self.max_sessions && !self.evict_lru(&mut inner) {
            inner.rejected_busy += 1;
            return Err(ServeError::Busy {
                retry_after_ms: self.retry_after_ms,
            });
        }
        let id = inner.next_id;
        inner.next_id += self.id_stride;
        inner.opened_total += 1;
        inner.slots.insert(
            id,
            Slot {
                session: Arc::new(Mutex::new(make())),
                digest,
                last_used: Instant::now(),
            },
        );
        Ok(id)
    }

    /// Hands out the session for a request, refreshing its LRU position.
    /// The pool lock is released before the caller locks the session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if the id was never opened, was
    /// closed, or was evicted.
    pub fn checkout(
        &self,
        id: SessionId,
    ) -> Result<(Arc<Mutex<DebugSession>>, PinballDigest), ServeError> {
        let mut inner = self.inner.lock().expect("pool lock");
        let slot = inner
            .slots
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession { session: id })?;
        slot.last_used = Instant::now();
        Ok((Arc::clone(&slot.session), slot.digest))
    }

    /// Closes a session, freeing its slot immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if there is nothing to close.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().expect("pool lock");
        inner
            .slots
            .remove(&id)
            .map(|_| ())
            .ok_or(ServeError::UnknownSession { session: id })
    }

    /// Counter snapshot for the `Stats` path.
    pub fn stats(&self) -> SessionStats {
        let inner = self.inner.lock().expect("pool lock");
        SessionStats {
            open: inner.slots.len() as u64,
            opened_total: inner.opened_total,
            evicted_lru: inner.evicted_lru,
            expired_idle: inner.expired_idle,
            rejected_busy: inner.rejected_busy,
        }
    }

    /// Drops every idle session whose last use is older than the timeout.
    fn sweep_idle(&self, inner: &mut PoolInner) {
        let cutoff = self.idle_timeout;
        let expired: Vec<SessionId> = inner
            .slots
            .iter()
            .filter(|(_, s)| Arc::strong_count(&s.session) == 1 && s.last_used.elapsed() >= cutoff)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            inner.slots.remove(&id);
            inner.expired_idle += 1;
        }
    }

    /// Evicts the least recently used idle session; `false` if every
    /// session is currently checked out (strong count > 1).
    fn evict_lru(&self, inner: &mut PoolInner) -> bool {
        let victim = inner
            .slots
            .iter()
            .filter(|(_, s)| Arc::strong_count(&s.session) == 1)
            .min_by_key(|(_, s)| s.last_used)
            .map(|(id, _)| *id);
        match victim {
            Some(id) => {
                inner.slots.remove(&id);
                inner.evicted_lru += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, Program, RoundRobin};
    use pinplay::record_whole_program;

    fn tiny_session() -> DebugSession {
        let src = r"
            .text
            .func main
                movi r1, 5
                addi r1, r1, 1
                halt
            .endfunc
        ";
        let program: Arc<Program> = Arc::new(assemble(src).expect("assembles"));
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "pool-test",
        )
        .expect("records");
        DebugSession::new(program, rec.pinball)
    }

    const D: PinballDigest = PinballDigest(1);

    #[test]
    fn open_checkout_close_roundtrip() {
        let pool = SessionManager::new(4, Duration::from_secs(300), 25);
        let id = pool.open(D, tiny_session).expect("admitted");
        let (arc, digest) = pool.checkout(id).expect("present");
        assert_eq!(digest, D);
        drop(arc);
        pool.close(id).expect("closes");
        assert!(matches!(
            pool.checkout(id),
            Err(ServeError::UnknownSession { session }) if session == id
        ));
        let s = pool.stats();
        assert_eq!((s.open, s.opened_total), (0, 1));
    }

    #[test]
    fn full_pool_evicts_lru_idle_session() {
        let pool = SessionManager::new(2, Duration::from_secs(300), 25);
        let a = pool.open(D, tiny_session).unwrap();
        let b = pool.open(D, tiny_session).unwrap();
        let (arc_b, _) = pool.checkout(b).unwrap(); // b is in use and recent
        let c = pool.open(D, tiny_session).expect("evicts a");
        assert!(matches!(
            pool.checkout(a),
            Err(ServeError::UnknownSession { .. })
        ));
        drop(arc_b);
        assert!(pool.checkout(b).is_ok());
        assert!(pool.checkout(c).is_ok());
        assert_eq!(pool.stats().evicted_lru, 1);
    }

    #[test]
    fn all_sessions_busy_is_backpressure_not_eviction() {
        let pool = SessionManager::new(1, Duration::from_secs(300), 40);
        let a = pool.open(D, tiny_session).unwrap();
        let (held, _) = pool.checkout(a).unwrap();
        let err = pool.open(D, tiny_session).unwrap_err();
        assert!(matches!(err, ServeError::Busy { retry_after_ms: 40 }));
        assert_eq!(pool.stats().rejected_busy, 1);
        drop(held);
        pool.open(D, tiny_session)
            .expect("idle session now evictable");
    }

    #[test]
    fn strided_ids_encode_their_shard() {
        // Shard 2 of 4: ids must always satisfy id % 4 == 2.
        let pool = SessionManager::with_ids(8, Duration::from_secs(300), 25, 4 + 2, 4);
        let ids: Vec<SessionId> = (0..5)
            .map(|_| pool.open(D, tiny_session).unwrap())
            .collect();
        assert_eq!(ids, vec![6, 10, 14, 18, 22]);
        assert!(ids.iter().all(|id| id % 4 == 2));
    }

    #[test]
    fn idle_sessions_expire_on_next_open() {
        let pool = SessionManager::new(4, Duration::from_millis(1), 25);
        let a = pool.open(D, tiny_session).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let _b = pool.open(D, tiny_session).unwrap();
        assert!(matches!(
            pool.checkout(a),
            Err(ServeError::UnknownSession { .. })
        ));
        assert_eq!(pool.stats().expired_idle, 1);
    }
}
