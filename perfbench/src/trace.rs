//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions (the program itself carries no spans yet).
//! Each span has a name, start, end, parent and request id; they stay in
//! memory until [`Tracer::write_ndjson`] at the end of the run. A
//! disabled tracer records nothing and reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        self.origin.map_or(0, |o| {
            u64::try_from(at.saturating_duration_since(o).as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) {
        if !self.enabled() {
            return;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Records an interval measured by the caller (requests overlap, so
    /// engine spans cannot use the enter/exit stack). `parent: None`
    /// nests it under the innermost open span. Returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let parent = parent.or_else(|| self.open.last().copied());
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Durations in microseconds of the spans called `name` whose parent
    /// is the span at `parent`.
    pub fn child_durations_us(&self, parent: Option<usize>, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == parent && parent.is_some())
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of span `i`: its duration minus the part of its
    /// interval covered by its children (overlapping children counted
    /// once).
    pub fn self_time_ns(&self, i: usize) -> u64 {
        let Some(span) = self.spans.get(i) else {
            return 0;
        };
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.duration_ns() - covered
    }

    /// All spans as NDJSON, one object per line with its self time.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(i)
            );
        }
        out
    }

    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_ndjson())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("request", 0, 100, None),
            span("encode", 10, 20, Some(0)),
            // Two overlapping children cover 30..70 once.
            span("forward", 30, 60, Some(0)),
            span("forward", 40, 70, Some(0)),
            // A child running past its parent's end only counts inside it.
            span("bfs", 90, 130, Some(0)),
            // A grandchild does not reduce the root's self time twice.
            span("kernel", 31, 35, Some(2)),
        ];
        assert_eq!(t.self_time_ns(0), 100 - 10 - 40 - 10);
        assert_eq!(t.self_time_ns(2), 30 - 4);
        assert_eq!(t.self_time_ns(5), 4);
        assert_eq!(t.self_time_ns(99), 0);
    }

    #[test]
    fn nesting_and_disabled_tracer() {
        let mut t = Tracer::new(true);
        assert_eq!(t.time("outer", Some(7), || 3), 3);
        t.enter("a", None);
        t.enter("b", Some(1));
        t.exit();
        t.exit();
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[1].parent, None);
        assert_eq!(t.durations_us("b").len(), 1);
        assert_eq!(t.child_durations_us(Some(1), "b").len(), 1);
        assert!(t.to_ndjson().lines().count() == 3);

        let mut off = Tracer::new(false);
        off.enter("a", None);
        off.exit();
        assert!(off
            .record("x", Instant::now(), Instant::now(), None, None)
            .is_none());
        assert!(off.spans().is_empty());
    }
}
