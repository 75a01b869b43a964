//! The traced run's span recorder: spans are opened and closed by the
//! benchmark around its calls into each layer's public functions, kept
//! in memory, and written out once at the end as Chrome trace-event
//! JSON (loadable in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Single-threaded span recorder. Spans nest: a span opened while
/// another is open records it as its parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, returning its duration in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        self.end_as(span, None)
    }

    /// Closes `span` under a name known only after the call returned
    /// (a factorization is a cold factor or a refactor by its outcome).
    pub fn end_as(&mut self, span: Open, rename: Option<&'static str>) -> f64 {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans close in LIFO order");
        let rec = &mut self.spans[span.0];
        rec.end_ns = now;
        if let Some(name) = rename {
            rec.name = name;
        }
        (rec.end_ns - rec.start_ns) as f64 * 1e-9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span,
    /// with its own index and its parent's in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the recording to `.bench_out/<stem>.trace.json` under the
    /// working directory, returning the path.
    pub fn write(&self, stem: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(".bench_out")?;
        let path = format!(".bench_out/{stem}.trace.json");
        std::fs::write(&path, self.chrome_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::default();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        let d_inner = t.end_as(inner, Some("renamed"));
        let d_outer = t.end(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(t.spans[1].name, "renamed");
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.chrome_json().contains("\"parent\":0"));
    }
}
