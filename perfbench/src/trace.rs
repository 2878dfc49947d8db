//! In-memory span recorder for the traced run, written out at the end as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; the program under test carries no spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `tramlib.insert`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition or round the span belongs to; spans of one batch share it.
    pub batch: u64,
}

/// A point event with free-form arguments (run outcomes, diagnostics).
#[derive(Debug, Clone)]
struct Mark {
    name: String,
    at_ns: u64,
    detail: String,
}

/// Span recorder.  Disabled tracers record nothing, so untraced runs pay
/// one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    marks: Vec<Mark>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].  Returns `None` when
    /// tracing is off.
    pub fn begin(&mut self, name: &str, parent: Option<usize>, batch: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record a completed span whose interval was measured by the caller
    /// (`start`/`end` are instants read around the timed call).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        batch: u64,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent,
            batch,
        });
    }

    /// Record a point event.
    pub fn mark(&mut self, name: &str, detail: String) {
        if self.enabled {
            let at_ns = self.now_ns();
            self.marks.push(Mark {
                name: name.to_string(),
                at_ns,
                detail,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_time_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns.min(span.end_ns) - s.start_ns.max(span.start_ns).min(s.end_ns))
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, one
    /// instant (`i`) event per mark, and `metadata` as the `otherData` map.
    pub fn to_chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for (i, span) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"batch\":{},\"self_us\":{:.3}}}}}",
                escape(&span.name),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.batch,
                self.self_time_ns(i) as f64 / 1e3,
            );
        }
        for mark in &self.marks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"args\":{{\"detail\":\"{}\"}}}}",
                escape(&mark.name),
                mark.at_ns as f64 / 1e3,
                escape(&mark.detail),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{");
        for (i, (key, value)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(key), escape(value));
        }
        out.push_str("}}");
        out
    }
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", None, 0);
        t.end(s);
        t.mark("m", "d".into());
        assert!(s.is_none());
        assert!(t.spans().is_empty());
        assert_eq!(
            t.to_chrome_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\",\"otherData\":{}}"
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let epoch = t.epoch;
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        t.record("root", at(0), at(100), None, 0);
        t.record("child", at(10), at(40), Some(0), 0);
        t.record("child", at(50), at(70), Some(0), 1);
        assert_eq!(t.self_time_ns(0), 50);
        assert_eq!(t.self_time_ns(1), 30);
        let json = t.to_chrome_json(&[("host", "a\"b".into())]);
        assert!(json.contains("\"name\":\"child\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":0,\"batch\":1"));
        assert!(json.contains("\"host\":\"a\\\"b\""));
    }
}
