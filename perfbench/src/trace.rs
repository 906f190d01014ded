//! In-memory span recorder around the benchmark's calls into the library.
//!
//! A span is a name, a start and end offset from the recorder's origin, the
//! index of the span that was open when it started, and the group (the
//! run's input graph) it belongs to. Spans stay in memory
//! until the run ends; a layer's self time is its span's duration minus the
//! time its child spans cover. A disabled recorder only times the call, so
//! the untraced run pays one clock read on each side and nothing else.

use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub group: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: usize,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), group: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with `group`.
    pub fn set_group(&mut self, group: usize) {
        self.group = group;
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's wall time in seconds. `f` receives the recorder, so nested
    /// calls become child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> (R, f64) {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start = started.duration_since(self.origin).as_secs_f64();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start, end: start, parent, group: self.group });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let secs = started.elapsed().as_secs_f64();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end = self.spans[i].start + secs;
        }
        (out, secs)
    }

    /// Self time of every span named `name` in `group`, in recording order.
    pub fn self_times(&self, name: &str, group: usize) -> Vec<f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(child_time)
            .filter(|(span, _)| span.name == name && span.group == group)
            .map(|(span, children)| span.duration() - children)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::new(true);
        trace.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = &trace.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let outer = trace.self_times("outer", 0)[0];
        let inner = trace.self_times("inner", 0)[0];
        assert!(trace.self_times("inner", 1).is_empty());
        assert!(inner >= 0.02, "inner {inner}");
        assert!(outer >= 0.005 && outer < spans[0].duration() - 0.019, "outer {outer}");
    }

    #[test]
    fn disabled_trace_times_but_records_nothing() {
        let mut trace = Trace::new(false);
        let (value, secs) = trace.span("x", |_| 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(trace.spans.is_empty());
    }
}
