//! The content-addressed result cache: completed simulation documents
//! keyed by the canonical string of everything that determines their
//! bytes.
//!
//! Two properties make caching safe here at all: the simulator is
//! deterministic (same canonical config + kernel list + seed + budget →
//! byte-identical output), and the cache key is exactly that canonical
//! form (see [`crate::request`]), compared whole, so two requests share
//! an entry only if they name the same simulation. On top of the map
//! this adds:
//!
//! - **LRU-by-bytes eviction**: the cache is bounded by total body bytes,
//!   not entry count — one 50 MB interval-heavy document should not be
//!   able to pin forty small ones out.
//! - **Single-flight coalescing**: concurrent requests for the same key
//!   block on the first one's computation instead of simulating the same
//!   workload N times; each request is classified exactly once as a
//!   `hit`, `miss`, or `coalesced` so the `/metrics` counters reconcile
//!   with the request count.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

/// A snapshot of the cache counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered from a stored entry without waiting.
    pub hits: u64,
    /// Requests that had to compute (including retries after an
    /// abandoned computation).
    pub misses: u64,
    /// Requests that waited for another request's in-flight computation
    /// and were answered by its result.
    pub coalesced: u64,
    /// Entries removed to get back under the byte budget.
    pub evictions: u64,
    /// Completed documents too large to store at all.
    pub oversize: u64,
    /// Bytes currently stored.
    pub bytes: u64,
    /// Entries currently stored.
    pub entries: u64,
}

struct Entry {
    body: Arc<str>,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<String, Entry>,
    /// Keys whose documents are being computed right now.
    inflight: HashSet<String>,
    bytes: usize,
    /// Monotonic recency clock (bumped per lookup, not wall time).
    tick: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    oversize: u64,
}

/// A bounded, content-addressed store of finished result documents.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    /// Signals waiters that an in-flight computation finished (or was
    /// abandoned).
    done: Condvar,
    capacity: usize,
}

/// The outcome of [`ResultCache::get_or_begin`].
pub enum Fetched<'a> {
    /// The document was already cached.
    Hit(Arc<str>),
    /// Another request computed the document while this one waited.
    Coalesced(Arc<str>),
    /// This request must compute the document; the guard holds the
    /// single-flight slot until [`ComputeGuard::fulfill`]ed or dropped.
    Miss(ComputeGuard<'a>),
}

impl ResultCache {
    /// Creates a cache bounded at `capacity` total body bytes (at least
    /// one byte, so a zero budget degenerates to "cache nothing").
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                inflight: HashSet::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                oversize: 0,
            }),
            done: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, blocking behind an identical in-flight request if
    /// one exists. Exactly one of the `hits` / `misses` / `coalesced`
    /// counters is bumped per call.
    pub fn get_or_begin(&self, key: String) -> Fetched<'_> {
        let mut waited = false;
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        loop {
            if inner.entries.contains_key(&key) {
                inner.tick += 1;
                let tick = inner.tick;
                let entry = inner.entries.get_mut(&key).expect("checked above");
                entry.last_used = tick;
                let body = Arc::clone(&entry.body);
                if waited {
                    inner.coalesced += 1;
                    return Fetched::Coalesced(body);
                }
                inner.hits += 1;
                return Fetched::Hit(body);
            }
            if inner.inflight.contains(&key) {
                waited = true;
                inner = self.done.wait(inner).expect("cache lock poisoned");
                continue;
            }
            // Nobody has it and nobody is computing it: this caller is
            // the single flight. (A waiter whose leader abandoned lands
            // here too — it becomes the new miss.)
            inner.inflight.insert(key.clone());
            inner.misses += 1;
            return Fetched::Miss(ComputeGuard {
                cache: self,
                key,
                resolved: false,
            });
        }
    }

    /// The current counter values.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            oversize: inner.oversize,
            bytes: inner.bytes as u64,
            entries: inner.entries.len() as u64,
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn insert(&self, key: String, body: &Arc<str>) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.inflight.remove(&key);
        if body.len() > self.capacity {
            inner.oversize += 1;
        } else {
            inner.tick += 1;
            let tick = inner.tick;
            inner.bytes += body.len();
            let prev = inner.entries.insert(
                key.clone(),
                Entry {
                    body: Arc::clone(body),
                    last_used: tick,
                },
            );
            if let Some(prev) = prev {
                inner.bytes -= prev.body.len();
            }
            while inner.bytes > self.capacity {
                let oldest = inner
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("bytes > capacity implies an evictable entry");
                let evicted = inner.entries.remove(&oldest).expect("key exists");
                inner.bytes -= evicted.body.len();
                inner.evictions += 1;
            }
        }
        drop(inner);
        self.done.notify_all();
    }

    fn abandon(&self, key: &str) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.inflight.remove(key);
        drop(inner);
        self.done.notify_all();
    }
}

/// Ownership of a key's single-flight slot. Exactly one guard exists per
/// in-flight key; dropping it without [`ComputeGuard::fulfill`] releases
/// waiters to recompute (so a panicking or deadline-cancelled request
/// never wedges the key).
pub struct ComputeGuard<'a> {
    cache: &'a ResultCache,
    key: String,
    resolved: bool,
}

impl ComputeGuard<'_> {
    /// Stores the computed document, wakes the coalesced waiters, and
    /// returns the shared body. The body is copied into an allocation of
    /// exactly its length, so the bytes the budget counts are the bytes
    /// held: a rendered `String` keeps its growth capacity, up to twice
    /// its length.
    pub fn fulfill(mut self, body: String) -> Arc<str> {
        self.resolved = true;
        let body: Arc<str> = Arc::from(body);
        self.cache.insert(std::mem::take(&mut self.key), &body);
        body
    }

    /// Releases the slot without a result (deadline exceeded, run error).
    pub fn abandon(mut self) {
        self.resolved = true;
        self.cache.abandon(&self.key);
    }
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.abandon(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must_miss<'a>(cache: &'a ResultCache, key: &str) -> ComputeGuard<'a> {
        match cache.get_or_begin(key.to_owned()) {
            Fetched::Miss(guard) => guard,
            _ => panic!("expected miss for key {key}"),
        }
    }

    #[test]
    fn hit_after_fulfill() {
        let cache = ResultCache::new(1024);
        must_miss(&cache, "7").fulfill("seven".to_owned());
        match cache.get_or_begin("7".to_owned()) {
            Fetched::Hit(body) => assert_eq!(&*body, "seven"),
            _ => panic!("expected hit"),
        }
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries, c.bytes), (1, 1, 1, 5));
    }

    #[test]
    fn lru_evicts_by_bytes_in_recency_order() {
        let cache = ResultCache::new(10);
        must_miss(&cache, "1").fulfill("aaaa".to_owned()); // 4 bytes
        must_miss(&cache, "2").fulfill("bbbb".to_owned()); // 8 bytes total
                                                           // Touch key 1 so key 2 is now least recently used.
        assert!(matches!(
            cache.get_or_begin("1".to_owned()),
            Fetched::Hit(_)
        ));
        must_miss(&cache, "3").fulfill("cccc".to_owned()); // 12 > 10: evict 2
        assert!(matches!(
            cache.get_or_begin("1".to_owned()),
            Fetched::Hit(_)
        ));
        assert!(matches!(
            cache.get_or_begin("3".to_owned()),
            Fetched::Hit(_)
        ));
        assert!(matches!(
            cache.get_or_begin("2".to_owned()),
            Fetched::Miss(_)
        ));
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
        assert_eq!(c.bytes, 8);
    }

    #[test]
    fn oversize_documents_are_not_stored() {
        let cache = ResultCache::new(4);
        must_miss(&cache, "1").fulfill("too large to keep".to_owned());
        assert!(matches!(
            cache.get_or_begin("1".to_owned()),
            Fetched::Miss(_)
        ));
        let c = cache.counters();
        assert_eq!((c.oversize, c.entries, c.bytes), (1, 0, 0));
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let guard = must_miss(&cache, "42");
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.get_or_begin("42".to_owned()) {
                    Fetched::Coalesced(body) => body.len(),
                    Fetched::Hit(body) => body.len(),
                    Fetched::Miss(_) => panic!("second flight for an in-flight key"),
                })
            })
            .collect();
        // Give the waiters time to block on the in-flight key, then
        // resolve it.
        while cache.counters().misses < 1 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.fulfill("answer".to_owned());
        for w in waiters {
            assert_eq!(w.join().unwrap(), 6);
        }
        let c = cache.counters();
        assert_eq!(c.misses, 1, "single flight");
        assert_eq!(c.hits + c.coalesced, 4);
    }

    #[test]
    fn abandoned_flight_releases_waiters_to_recompute() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let guard = must_miss(&cache, "9");
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.get_or_begin("9".to_owned()) {
                Fetched::Miss(g) => {
                    g.fulfill("recomputed".to_owned());
                    true
                }
                _ => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.abandon();
        assert!(waiter.join().unwrap(), "waiter should become the new miss");
        assert_eq!(cache.counters().misses, 2);
    }
}
