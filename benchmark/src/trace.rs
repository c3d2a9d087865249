//! The benchmark's own spans: one record per call into a layer, kept in
//! memory and written out when the run ends. Nothing inside the product
//! is instrumented — every span is opened and closed by benchmark code
//! around a public function of a layer.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the part before the first dot is the layer.
    pub name: &'static str,
    /// The cell this call served; spans of one cell share it.
    pub cell: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ops the call handled (0 where the call is not per-op work).
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Parent index of a top-level span; also the id handed out while the
/// tracer is off.
pub const ROOT: u32 = u32::MAX;

/// Records spans while on; free (one branch per call) while off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns: now,
            end_ns: now,
            work: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32, work: u64) {
        if id == ROOT {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.work = work;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: calls, total time, self time (total minus the time
    /// covered by child spans) and work.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                self_ns[s.parent as usize] -= s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.ns += s.ns();
            t.self_ns += own;
            t.work += s.work;
        }
        out
    }

    /// Writes one JSON object per span, in open order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"cell\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.cell, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Total {
    /// Nanoseconds per unit of work (0 when the span carried none).
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.ns as f64 / self.work as f64
        }
    }
}
