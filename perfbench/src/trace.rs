//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's own calls into the program's public functions (nothing is
//! traced inside the program) and written out when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: its name, the span that caused it, and its interval in
/// microseconds from the start of the trace.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// The spans of one traced run, in the order they were opened.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            start_us: self.at(start),
            end_us: self.at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span from `start` until now; returns its duration.
    pub fn record_since(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> Duration {
        let end = Instant::now();
        self.record(name, parent, start, end);
        end - start
    }

    /// Opens a parent span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.record(name, None, now, now)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.at(Instant::now());
    }

    /// The spans as JSON lines: `{"id":…,"name":…,"parent":…,"start_us":…,"end_us":…}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }
}
