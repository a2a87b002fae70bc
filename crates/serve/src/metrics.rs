//! Server observability: request/outcome counters, host-stage profile
//! aggregation, and the `multipath-serve-metrics/v1` document.
//!
//! Counters are plain atomics bumped on the request path; the per-stage
//! host profile (the same [`StageProfile`] `multipath trace` prints) is
//! accumulated under a mutex since simulations finish at millisecond
//! granularity. The rendered document is hand-built JSON like every other
//! emitter in the workspace, so `testkit::Json` round-trips it in tests.

use crate::cache::CacheCounters;
use multipath_core::StageProfile;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Live counters for one server instance.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// `POST /v1/run` requests that parsed successfully.
    pub run_requests: AtomicU64,
    /// `POST /v1/sweep` requests that parsed successfully.
    pub sweep_requests: AtomicU64,
    /// Individual cells simulated (or served from cache) across sweeps.
    pub sweep_cells: AtomicU64,
    /// `GET /v1/explain/:kernel` requests that parsed successfully.
    pub explain_requests: AtomicU64,
    /// Requests shed with `429` because the queue was full or draining.
    pub rejected_overloaded: AtomicU64,
    /// Runs cancelled by their deadline (`504`).
    pub deadline_exceeded: AtomicU64,
    /// Requests answered with any other 4xx.
    pub bad_requests: AtomicU64,
    /// Simulations in flight (see [`ServerMetrics::simulating`]).
    pub simulating: AtomicU64,
    /// The most simulations ever in flight at once.
    pub simulating_peak: AtomicU64,
    /// Host time per pipeline stage, summed over every simulation this
    /// server ran.
    pub profile: Mutex<StageProfile>,
}

impl ServerMetrics {
    /// Adds one finished simulation's host-stage profile.
    pub fn record_profile(&self, p: &StageProfile) {
        let mut total = self.profile.lock().expect("profile lock poisoned");
        total.commit += p.commit;
        total.writeback += p.writeback;
        total.issue += p.issue;
        total.rename += p.rename;
        total.fetch += p.fetch;
        total.probes += p.probes;
        total.steps += p.steps;
    }

    /// Counts one simulation in flight until the returned guard drops,
    /// on a panic too.
    pub fn simulating(&self) -> Simulating<'_> {
        let now = self.simulating.fetch_add(1, Ordering::Relaxed) + 1;
        self.simulating_peak.fetch_max(now, Ordering::Relaxed);
        Simulating(self)
    }

    /// Renders the `multipath-serve-metrics/v1` document.
    ///
    /// `queue` is `(depth, running, workers, capacity)` sampled from the
    /// worker pool at render time.
    pub fn render(
        &self,
        cache: &CacheCounters,
        cache_capacity: usize,
        queue: QueueSnapshot,
    ) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"multipath-serve-metrics/v1\",\n");
        let _ = writeln!(
            out,
            "  \"requests\": {{\n    \"run\": {},\n    \"sweep\": {},\n    \
             \"sweep_cells\": {},\n    \"explain\": {}\n  }},",
            self.run_requests.load(Ordering::Relaxed),
            self.sweep_requests.load(Ordering::Relaxed),
            self.sweep_cells.load(Ordering::Relaxed),
            self.explain_requests.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "  \"rejected\": {{\n    \"overloaded\": {},\n    \
             \"deadline_exceeded\": {},\n    \"bad_request\": {}\n  }},",
            self.rejected_overloaded.load(Ordering::Relaxed),
            self.deadline_exceeded.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "  \"queue\": {{\n    \"depth\": {},\n    \"running\": {},\n    \
             \"simulating\": {},\n    \"simulating_peak\": {},\n    \
             \"workers\": {},\n    \"capacity\": {}\n  }},",
            queue.depth,
            queue.running,
            self.simulating.load(Ordering::Relaxed),
            self.simulating_peak.load(Ordering::Relaxed),
            queue.workers,
            queue.capacity,
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{\n    \"hits\": {},\n    \"misses\": {},\n    \
             \"coalesced\": {},\n    \"evictions\": {},\n    \"oversize\": {},\n    \
             \"bytes\": {},\n    \"entries\": {},\n    \"capacity_bytes\": {}\n  }},",
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.evictions,
            cache.oversize,
            cache.bytes,
            cache.entries,
            cache_capacity,
        );
        let prof = self.profile.lock().expect("profile lock poisoned");
        let _ = writeln!(out, "  \"host_profile\": {{");
        let _ = writeln!(out, "    \"steps\": {},", prof.steps);
        for (i, (name, d)) in prof.rows().iter().enumerate() {
            let _ = write!(out, "    \"{name}_s\": {:.6}", d.as_secs_f64());
            out.push_str(if i + 1 < prof.rows().len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// One simulation counted in [`ServerMetrics::simulating`]; dropping it
/// ends the count.
pub struct Simulating<'a>(&'a ServerMetrics);

impl Drop for Simulating<'_> {
    fn drop(&mut self) {
        self.0.simulating.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A point-in-time view of the worker pool, for [`ServerMetrics::render`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueSnapshot {
    /// Jobs queued but not yet running.
    pub depth: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Worker-thread count.
    pub workers: usize,
    /// Queue capacity (the 429 threshold).
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipath_testkit::Json;
    use std::time::Duration;

    #[test]
    fn simulating_counts_until_the_guard_drops_even_on_a_panic() {
        let m = ServerMetrics::default();
        let first = m.simulating();
        let second = m.simulating();
        assert_eq!(m.simulating.load(Ordering::Relaxed), 2);
        drop((first, second));
        let panicked = std::panic::catch_unwind(|| {
            let _guard = m.simulating();
            panic!("a simulation panics on purpose");
        });
        assert!(panicked.is_err());
        assert_eq!(m.simulating.load(Ordering::Relaxed), 0);
        assert_eq!(m.simulating_peak.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn metrics_document_round_trips() {
        let m = ServerMetrics::default();
        m.run_requests.store(7, Ordering::Relaxed);
        m.record_profile(&StageProfile {
            commit: Duration::from_millis(5),
            steps: 1234,
            ..StageProfile::default()
        });
        let cache = CacheCounters {
            hits: 3,
            misses: 4,
            ..CacheCounters::default()
        };
        let doc = m.render(
            &cache,
            1 << 20,
            QueueSnapshot {
                depth: 1,
                running: 2,
                workers: 4,
                capacity: 64,
            },
        );
        let v = Json::parse(&doc).expect("well-formed metrics JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("multipath-serve-metrics/v1")
        );
        assert_eq!(
            v.get("requests")
                .and_then(|r| r.get("run"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            v.get("host_profile")
                .and_then(|p| p.get("steps"))
                .and_then(Json::as_u64),
            Some(1234)
        );
        assert_eq!(
            v.get("host_profile")
                .and_then(|p| p.get("commit_s"))
                .and_then(Json::as_f64),
            Some(0.005)
        );
    }
}
