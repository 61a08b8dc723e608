//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded in the benchmark's own code, around each call it
//! makes into a layer of the program; nothing inside the program is
//! instrumented. A span carries its name, the layer it times, its start
//! and end, the span that caused it and the request it belongs to. The
//! spans stay in memory until the run ends and are then written as NDJSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one epoch. A disabled recorder, or one switched
/// off for the current request, costs a branch per call and keeps nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    active: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            active: enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the next request (never on when the
    /// recorder is disabled). Returns whether it is now on.
    pub fn set_active(&mut self, on: bool) -> bool {
        self.active = self.enabled && on;
        self.active
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (`None` when disabled). Close it
    /// with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.active {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            request,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. by a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.active {
            return None;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            request,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(id)
    }

    /// Appends another recorder's spans, renumbering ids and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of the spans named `name`, in seconds, and their count.
    pub fn total_s(&self, name: &str) -> (f64, usize) {
        let mut total = 0u64;
        let mut n = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.duration_ns();
            n += 1;
        }
        (total as f64 * 1e-9, n)
    }

    /// Self time per layer, in seconds: each span's duration minus the part
    /// of it its child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = s.duration_ns().saturating_sub(child_ns[s.id]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.name, s.layer, s.request, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        let root = t.record(
            "request",
            "bench",
            1,
            None,
            epoch,
            epoch + std::time::Duration::from_millis(10),
        );
        t.record(
            "route",
            "core",
            1,
            root,
            epoch + std::time::Duration::from_millis(2),
            epoch + std::time::Duration::from_millis(8),
        );
        let by_layer = t.self_time_by_layer();
        assert!((by_layer["bench"] - 0.004).abs() < 1e-9);
        assert!((by_layer["core"] - 0.006).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", "bench", 0, None, || 7), 7);
        assert!(t.to_ndjson().is_empty());
    }
}
