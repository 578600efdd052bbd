//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its layer name, start, end, parent span and the
//! operation it belongs to. Each thread keeps its own [`Tracer`]; the
//! run merges them at the end, derives each layer's self time (its
//! duration minus the part its child spans cover) and writes the spans
//! out. With tracing off a [`Tracer`] records nothing and costs one
//! branch per call.

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Operation ids are `tag << 40 | n`, unique across threads.
    tag: u64,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new(), tag, op: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested under the innermost span still
    /// open on this thread. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.tag << 40 | self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, span: Option<u32>) {
        if let Some(idx) = span {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a leaf span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let g = self.begin(name);
        let out = f();
        self.end(g);
        out
    }
}

/// Per-layer totals over every recorded span.
#[derive(Default, Clone, Copy, Debug)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Summed duration of this layer's direct children.
    pub child_ns: u64,
    /// Summed duration of the spans of this layer that have no parent.
    pub root_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    /// Spans per thread; parent indices refer into the same list.
    threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn absorb(&mut self, t: Tracer) {
        if t.on {
            self.threads.push(t.spans);
        }
    }

    /// Totals and self times per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        self.layers_where(|_| true)
    }

    /// [`Trace::layers`] over the operations whose root span is named
    /// one of `roots`.
    pub fn layers_of(&self, roots: &[&str]) -> BTreeMap<&'static str, Layer> {
        let ops: HashSet<u64> = self
            .threads
            .iter()
            .flatten()
            .filter(|s| s.parent.is_none() && roots.contains(&s.name))
            .map(|s| s.op)
            .collect();
        self.layers_where(|s| ops.contains(&s.op))
    }

    fn layers_where(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p as usize] += s.dur_ns();
                }
            }
            for (s, &c) in spans.iter().zip(&child_ns).filter(|(s, _)| keep(s)) {
                let l = out.entry(s.name).or_default();
                l.count += 1;
                l.total_ns += s.dur_ns();
                l.child_ns += c;
                l.self_ns += s.dur_ns().saturating_sub(c);
                if s.parent.is_none() {
                    l.root_ns += s.dur_ns();
                }
            }
        }
        out
    }

    /// Writes the spans of `traces` as tab-separated lines, one per
    /// span: thread, index in the thread, operation id, parent index
    /// (`-` for a root), name, start and end in ns since the run began.
    pub fn write_tsv(traces: &[&Trace], path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread\tindex\top\tparent\tname\tstart_ns\tend_ns")?;
        let threads = traces.iter().flat_map(|t| &t.threads);
        for (t, spans) in threads.enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{t}\t{i}\t{}\t{parent}\t{}\t{}\t{}",
                    s.op, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.next_op();
        let root = t.begin("root");
        t.span("child", || t_sleep(2));
        t_sleep(1);
        t.end(root);
        let mut off = Tracer::new(false, Instant::now(), 2);
        off.span("ignored", || ());
        let mut trace = Trace::default();
        trace.absorb(t);
        trace.absorb(off);
        let layers = trace.layers();
        assert_eq!(trace.layers_of(&["root"])["child"].count, 1);
        assert!(trace.layers_of(&["child"]).is_empty());
        assert_eq!(layers["root"].count, 1);
        assert_eq!(layers["root"].child_ns, layers["child"].total_ns);
        assert!(layers["child"].self_ns >= 2_000_000);
        assert!(layers["root"].self_ns >= 1_000_000);
        assert_eq!(layers["root"].total_ns, layers["root"].self_ns + layers["root"].child_ns);
    }

    fn t_sleep(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}
