//! Harness spans: the benchmark's own record of every public call it
//! makes into the program, kept in memory and written out at exit.
//!
//! A span is `{name, start, end, parent, rep}`. A layer's *self time* is
//! its span minus the part its child spans cover. Spans are recorded only
//! in the traced run; the untraced run pays one branch per call.

use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Trace`]; [`NONE`] when tracing is off.
pub type SpanId = u32;

/// "No span": the parent of top-level spans and the id every
/// [`Trace::begin`] returns while disabled.
pub const NONE: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Enclosing span, or [`NONE`].
    pub parent: SpanId,
    /// Which rep of the workload recorded it.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log sharing one clock origin.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
}

impl Trace {
    /// A recording trace.
    pub fn on() -> Self {
        Trace {
            enabled: true,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    /// A trace that records nothing (the untraced run).
    pub fn off() -> Self {
        Trace {
            enabled: false,
            ..Trace::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep: self.rep,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span measured elsewhere (another thread's call).
    pub fn push(&mut self, name: &'static str, parent: SpanId, began: Instant, ended: Instant) {
        if self.enabled {
            let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: since(began),
                end_ns: since(ended),
                parent,
                rep: self.rep,
            });
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per span: duration minus the time covered by children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(parent) = own.get_mut(s.parent as usize) {
                *parent = parent.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Writes the spans as a Chrome `trace_event` file (open it in
    /// <https://ui.perfetto.dev> or `chrome://tracing`): one lane per
    /// rep, `args` carrying the span id, its parent and its self time.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.rep,
                own[i] as f64 / 1e3,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::off();
        let id = t.begin("x", NONE);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::on();
        let outer = t.begin("outer", NONE);
        let inner = t.begin("inner", outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans[1].parent, outer);
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
    }
}
