//! In-memory spans around the calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`. Totals per
//! name and the time covered by children are kept for *every* span;
//! the spans themselves are stored up to [`STORED_SPANS`], because one
//! `tree1365` rep is three million of them. The stored prefix is what
//! the Chrome-trace file holds; every reported number comes from the
//! totals, never from the prefix.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans written to the trace file (the first this many of a run).
pub const STORED_SPANS: usize = 100_000;

/// An interned span name: the per-event path indexes totals by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(usize);

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: Option<u64>,
}

/// Count and summed duration of the spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Summed duration of each stored span's direct children, dropped
    /// ones included.
    child_ns: Vec<u64>,
    names: Vec<&'static str>,
    totals: Vec<Total>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            child_ns: Vec::new(),
            names: Vec::new(),
            totals: Vec::new(),
            dropped: 0,
        }
    }

    /// Intern a span name.
    pub fn name(&mut self, name: &'static str) -> Name {
        let known = self.names.iter().position(|n| *n == name);
        Name(known.unwrap_or_else(|| {
            self.names.push(name);
            self.totals.push(Total::default());
            self.names.len() - 1
        }))
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses others; always stored. Close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.open_at(name, parent, start_ns)
    }

    /// [`Tracer::open`] with the start instant given.
    pub fn open_at(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64) -> usize {
        let name = self.name(name);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id: None,
        });
        self.child_ns.push(0);
        self.spans.len() - 1
    }

    /// End an [`open`](Tracer::open)ed span now; returns its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        self.close_at(id, end_ns)
    }

    /// [`Tracer::close`] with the end instant given.
    pub fn close_at(&mut self, id: usize, end_ns: u64) -> u64 {
        self.spans[id].end_ns = end_ns;
        let (name, start_ns, parent) = {
            let s = &self.spans[id];
            (s.name, s.start_ns, s.parent)
        };
        self.account(name, start_ns, end_ns, parent);
        end_ns - start_ns
    }

    /// Record a finished span under `parent`.
    pub fn leaf(
        &mut self,
        name: Name,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
        request_id: Option<u64>,
    ) {
        self.account(name, start_ns, end_ns, Some(parent));
        if self.spans.len() < STORED_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                request_id,
            });
            self.child_ns.push(0);
        } else {
            self.dropped += 1;
        }
    }

    /// Time `f` as a leaf span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let name = self.name(name);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.leaf(name, start_ns, end_ns, parent, None);
        out
    }

    fn account(&mut self, name: Name, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        let ns = end_ns.saturating_sub(start_ns);
        let total = &mut self.totals[name.0];
        total.count += 1;
        total.ns += ns;
        if let Some(p) = parent {
            self.child_ns[p] += ns;
        }
    }

    /// Count and summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Total {
        let known = self.names.iter().position(|n| *n == name);
        known.map(|i| self.totals[i]).unwrap_or_default()
    }

    /// Duration of a stored span.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.duration_ns(id).saturating_sub(self.child_ns[id])
    }

    /// Spans not stored because the file cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps) — load it in Perfetto or `chrome://tracing`.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"self_ns\":{}",
                self.names[s.name.0],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.self_ns(i),
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request_id {
                let _ = write!(out, ",\"request_id\":{r}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.open_at("rep", None, 0);
        let phase = t.open_at("phase", Some(root), 0);
        let (a, b) = (t.name("a"), t.name("b"));
        t.leaf(a, 10, 40, phase, Some(7));
        t.leaf(a, 40, 50, phase, None);
        t.leaf(b, 50, 75, phase, None);
        assert_eq!(t.close_at(phase, 100), 100);
        assert_eq!(t.close_at(root, 125), 125);

        assert_eq!(t.total("a"), Total { count: 2, ns: 40 });
        assert_eq!(t.total("b"), Total { count: 1, ns: 25 });
        assert_eq!(t.self_ns(phase), 100 - 65);
        assert_eq!(t.self_ns(root), 25);
    }

    #[test]
    fn totals_survive_the_storage_cap() {
        let mut t = Tracer::new();
        let root = t.open("rep", None);
        let x = t.name("x");
        for i in 0..(STORED_SPANS as u64 + 10) {
            t.leaf(x, i, i + 1, root, None);
        }
        assert_eq!(t.total("x").count, STORED_SPANS as u64 + 10);
        assert_eq!(t.dropped(), 11);
        assert_eq!(t.child_ns[root], STORED_SPANS as u64 + 10);
    }

    #[test]
    fn chrome_trace_is_json() {
        let mut t = Tracer::new();
        let root = t.open("rep", None);
        let name = t.name("core.handle_request");
        t.leaf(name, 5, 9, root, Some(3));
        t.close(root);
        let v = agentgrid_telemetry::json::Value::parse(&t.to_chrome()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("array");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("request_id").and_then(|r| r.as_u64()), Some(3));
        assert_eq!(args.get("parent").and_then(|r| r.as_u64()), Some(0));
    }
}
