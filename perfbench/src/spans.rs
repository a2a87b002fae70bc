//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer: its name, start,
//! end, the span that caused it, and the cell or request it served. Spans
//! are kept in memory and written out once the run ends; a disabled
//! tracer calls straight through and records nothing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The layer function called, e.g. `core::Simulator::run`.
    pub name: &'static str,
    /// The cell or request the call served.
    pub key: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records spans when enabled; shared by reference across client threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes calls straight through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// (`None` when disabled) so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        key: impl FnOnce() -> String,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = key();
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Per span name: call count, total seconds, and self seconds (total
    /// minus the time covered by child spans), sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans();
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total as f64 * 1e-9;
                    r.3 += own as f64 * 1e-9;
                }
                None => rows.push((s.name, 1, total as f64 * 1e-9, own as f64 * 1e-9)),
            }
        }
        rows.sort_by_key(|r| r.0);
        rows
    }

    /// The span log as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"key\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.name,
                crate::report::escape(&s.key),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", None, String::new, |outer| {
            t.span(
                "inner",
                outer,
                || "k".to_owned(),
                |_| std::thread::sleep(std::time::Duration::from_millis(2)),
            )
        });
        let rows = t.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner.2 >= 0.002);
        assert!(outer.3 < outer.2 && outer.3 >= 0.0);
        assert_eq!(t.spans()[1].parent, Some(t.spans()[0].id));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, String::new, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
