//! Content-addressed, shard-local LRU cache.
//!
//! Cyclic debugging recomputes the same answers over and over: every debug
//! iteration replays the same pinball and asks about the same failure
//! point. One [`Cache`] type exploits that shape for all three expensive
//! artifacts a shard produces — canonical slices ([`WireSlice`]),
//! dependence indexes ([`DepIndex`]) and relog outcomes
//! ([`RelogOutcome`]). A result is keyed by *content*, never by session:
//! the pinball's [`PinballDigest`] (a fold of its chunk CRCs), the
//! resolved [`Criterion`] (`None` for the criterion-independent index, so
//! every criterion on one pinball shares a single index build), and the
//! [`SliceOptions::fingerprint`](slicer::SliceOptions::fingerprint). Two
//! clients debugging two uploads of the identical pinball therefore share
//! entries, and reopening a session after a pool eviction loses no cached
//! work.
//!
//! Eviction is LRU by lookup order with a fixed entry capacity; all
//! counters are surfaced through [`CacheStats`] on the `Stats` path. The
//! cache needs no build deduplication of its own: each shard's caches are
//! only touched by that shard's one worker thread (see [`crate::service`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use pinplay::PinballDigest;
use slicer::{Criterion, DepIndex};

use crate::proto::{CacheStats, WireSlice};

/// What one relog produced: the handle and counters a repeat request can
/// answer with, without touching the session again. The slice-pinball
/// container itself lives in the server's content-addressed store under
/// `digest`; the cache only remembers that it exists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RelogOutcome {
    /// Content digest of the slice pinball in the store.
    pub digest: PinballDigest,
    /// The debugger's relog report (kept/excluded/forced counters).
    pub report: drdebug::RelogReport,
    /// Serialized size of the stored container, for byte accounting.
    pub bytes: u64,
}

/// A cached value's contribution to [`CacheStats::bytes`].
pub(crate) trait Weigh {
    /// Approximate resident size in bytes.
    fn weight(&self) -> u64;
}

impl Weigh for WireSlice {
    fn weight(&self) -> u64 {
        self.canonical_bytes().len() as u64
    }
}

impl Weigh for DepIndex {
    fn weight(&self) -> u64 {
        self.approx_bytes()
    }
}

impl Weigh for RelogOutcome {
    fn weight(&self) -> u64 {
        self.bytes
    }
}

/// What was computed, where, under which options: (pinball digest,
/// criterion or `None`, options fingerprint).
pub(crate) type Key = (PinballDigest, Option<Criterion>, u64);

struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<Key, Entry<V>>,
    /// Monotonic lookup clock driving LRU order.
    tick: u64,
    /// Hit/miss/eviction counters and resident bytes; `entries` is filled
    /// in from the map at snapshot time.
    stats: CacheStats,
}

/// A bounded, content-addressed LRU store of shared values.
pub(crate) struct Cache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V: Weigh> Cache<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub(crate) fn new(capacity: usize) -> Cache<V> {
        Cache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().expect("cache lock")
    }

    /// Looks up `key`, counting a hit or miss and refreshing LRU order.
    pub(crate) fn get(&self, key: Key) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.value)
        });
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Stores `value`, evicting least recently used entries to stay within
    /// capacity. Re-inserting an existing key refreshes it.
    pub(crate) fn insert(&self, key: Key, value: Arc<V>) {
        let bytes = value.weight();
        let mut inner = self.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.stats.bytes -= old.bytes;
        }
        while inner.map.len() >= self.capacity {
            // O(entries) scan; the capacity is a configuration-sized bound,
            // not a dataset.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&victim) {
                inner.stats.bytes -= evicted.bytes;
                inner.stats.evictions += 1;
            }
        }
        inner.stats.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                value,
                bytes,
                last_used,
            },
        );
    }

    /// Returns the cached value for `key`, or builds and stores it. The
    /// flag is `true` when the cache answered without running `build` —
    /// the wire-level `cached` flag. `build` runs with the lock released,
    /// so a slow build never blocks a concurrent [`Cache::stats`]; a build
    /// that fails stores nothing and passes its error on.
    pub(crate) fn get_or_insert_with<E>(
        &self,
        key: Key,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(hit) = self.get(key) {
            return Ok((hit, true));
        }
        let value = build()?;
        self.insert(key, Arc::clone(&value));
        Ok((value, false))
    }

    /// Counter snapshot for the `Stats` path.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len() as u64,
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer::LocKey;

    /// A test value that weighs exactly its own number of bytes.
    impl Weigh for u64 {
        fn weight(&self) -> u64 {
            *self
        }
    }

    const D: PinballDigest = PinballDigest(0xfeed);

    fn rec(id: u64) -> Option<Criterion> {
        Some(Criterion::Record { id })
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = Cache::new(4);
        assert!(cache.get((D, rec(1), 0)).is_none());
        cache.insert((D, rec(1), 0), Arc::new(10u64));
        assert_eq!(cache.get((D, rec(1), 0)).as_deref(), Some(&10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 10));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = Cache::new(8);
        cache.insert((D, rec(1), 0), Arc::new(1u64));
        assert!(
            cache.get((PinballDigest(0xbeef), rec(1), 0)).is_none(),
            "digest"
        );
        assert!(cache.get((D, rec(2), 0)).is_none(), "criterion");
        assert!(cache.get((D, None, 0)).is_none(), "criterion vs none");
        assert!(cache.get((D, rec(1), 1)).is_none(), "fingerprint");
        let value = Some(Criterion::Value {
            id: 1,
            key: LocKey::Mem(0),
        });
        assert!(cache.get((D, value, 0)).is_none(), "record vs value");
        cache.insert((D, None, 0), Arc::new(2u64));
        assert_eq!(cache.get((D, None, 0)).as_deref(), Some(&2));
        assert_eq!(cache.get((D, rec(1), 0)).as_deref(), Some(&1));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries_and_frees_their_bytes() {
        let cache = Cache::new(2);
        cache.insert((D, rec(1), 0), Arc::new(100u64));
        cache.insert((D, rec(2), 0), Arc::new(20u64));
        cache.get((D, rec(1), 0)).expect("a cached"); // refresh a; b is now LRU
        cache.insert((D, rec(3), 0), Arc::new(3u64)); // evicts b
        assert!(
            cache.get((D, rec(1), 0)).is_some(),
            "recently used survives"
        );
        assert!(cache.get((D, rec(2), 0)).is_none(), "LRU evicted");
        assert!(cache.get((D, rec(3), 0)).is_some());
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries, s.bytes), (1, 2, 103));
    }

    #[test]
    fn reinsert_refreshes_value_bytes_and_recency() {
        let cache = Cache::new(2);
        cache.insert((D, rec(1), 0), Arc::new(5u64));
        cache.insert((D, rec(2), 0), Arc::new(6u64));
        cache.insert((D, rec(1), 0), Arc::new(7u64)); // a is now the newest
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries, s.bytes), (0, 2, 13));
        cache.insert((D, rec(3), 0), Arc::new(8u64)); // evicts b, not a
        assert_eq!(cache.get((D, rec(1), 0)).as_deref(), Some(&7));
        assert!(cache.get((D, rec(2), 0)).is_none());
        assert_eq!(cache.stats().bytes, 15);
    }

    #[test]
    fn get_or_insert_with_builds_once_and_reports_cached() {
        let cache = Cache::new(1);
        let mut builds = 0;
        let mut ask = |fp: u64| {
            cache
                .get_or_insert_with((D, None, fp), || {
                    builds += 1;
                    Ok::<_, ()>(Arc::new(fp))
                })
                .expect("build succeeds")
                .1
        };
        assert!(!ask(1), "cold key builds");
        assert!(ask(1), "repeat is served from the cache");
        assert!(!ask(2), "different options: miss, evicts fp 1");
        assert!(!ask(1), "miss again after eviction");
        assert_eq!(builds, 3);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.evictions, s.entries), (3, 1, 2, 1));
        assert_eq!(s.bytes, 1, "evicted bytes freed");
    }

    #[test]
    fn failed_build_stores_nothing() {
        let cache: Cache<u64> = Cache::new(4);
        let failed = cache.get_or_insert_with((D, rec(1), 0), || Err("no such record"));
        assert_eq!(failed.err(), Some("no such record"));
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.bytes), (1, 0, 0));
        let built = cache.get_or_insert_with((D, rec(1), 0), || Ok::<_, ()>(Arc::new(5)));
        assert_eq!(built.map(|(v, cached)| (*v, cached)), Ok((5, false)));
    }
}
