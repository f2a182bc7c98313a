//! In-memory spans around the benchmark's calls into the library, their
//! per-layer self times, and the span file written when the run ends.
//!
//! A span names the layer whose public call it wraps. The root span of a
//! request (a KV request, or one Table 2 pass of an engine) carries the
//! request id; its children are the calls made on its behalf. A layer's
//! self time is its spans' duration minus the part covered by their
//! children, so the root's self time is the benchmark's own work: the
//! traffic generator and its bookkeeping.

use std::fmt::Write as _;
use std::path::Path;

/// The layer a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One KV request: generator, store call, safepoint.
    Request,
    /// `KvStore::get`.
    StoreGet,
    /// `KvStore::put`.
    StorePut,
    /// `Session::safepoint` after a request.
    Safepoint,
    /// One pass of an engine over the Table 2 profiles.
    Table2Pass,
    /// One `drink_workloads::driver::run_kind` call.
    RunKind,
}

impl Layer {
    const ALL: [Layer; 6] = [
        Layer::Request,
        Layer::StoreGet,
        Layer::StorePut,
        Layer::Safepoint,
        Layer::Table2Pass,
        Layer::RunKind,
    ];

    /// The span name: the module and call the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "bench.request",
            Layer::StoreGet => "serve::store::KvStore::get",
            Layer::StorePut => "serve::store::KvStore::put",
            Layer::Safepoint => "core::session::Session::safepoint",
            Layer::Table2Pass => "bench.table2_pass",
            Layer::RunKind => "workloads::driver::run_kind",
        }
    }

    /// The root layer whose spans contain this layer's spans (`None` for a
    /// root).
    fn parent(self) -> Option<Layer> {
        match self {
            Layer::Request | Layer::Table2Pass => None,
            Layer::StoreGet | Layer::StorePut | Layer::Safepoint => Some(Layer::Request),
            Layer::RunKind => Some(Layer::Table2Pass),
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub req: u64,
    pub worker: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals: span count, summed duration, and summed duration of
/// the layer's direct children.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    pub spans: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl LayerTotal {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Spans of one worker (or of a merged set of workers). Every span feeds
/// the per-layer totals; the first `keep` spans are also stored for the span
/// file, which bounds the memory a long traced run holds.
#[derive(Clone, Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    keep: usize,
    dropped: u64,
    totals: [LayerTotal; Layer::ALL.len()],
}

impl SpanBuf {
    pub fn new(keep: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(keep.min(1 << 16)),
            keep,
            dropped: 0,
            totals: Default::default(),
        }
    }

    /// Record a span. Children and their root share `req`; the caller
    /// records children with times inside the root's interval.
    #[inline]
    pub fn record(&mut self, layer: Layer, req: u64, worker: usize, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[layer as usize];
        t.spans += 1;
        t.total_ns += dur;
        if let Some(p) = layer.parent() {
            self.totals[p as usize].child_ns += dur;
        }
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                layer,
                req,
                worker: worker as u8,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Fold another buffer into this one (its stored spans up to `keep`).
    pub fn merge(&mut self, other: &SpanBuf) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.spans += b.spans;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
        }
        let room = self
            .keep
            .saturating_sub(self.spans.len())
            .min(other.spans.len());
        self.spans.extend_from_slice(&other.spans[..room]);
        self.dropped += other.dropped + (other.spans.len() - room) as u64;
    }

    /// Layers with at least one span, with their totals.
    pub fn totals(&self) -> impl Iterator<Item = (Layer, LayerTotal)> + '_ {
        Layer::ALL
            .iter()
            .map(|&l| (l, self.totals[l as usize]))
            .filter(|(_, t)| t.spans > 0)
    }

    pub fn stored(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Print the per-layer self-time table of one engine's spans.
pub fn print_self_times(engine: &str, buf: &SpanBuf) {
    let roots: u64 = buf
        .totals()
        .filter(|(l, _)| l.parent().is_none())
        .map(|(_, t)| t.total_ns)
        .sum();
    println!(
        "  self time, {engine} ({} spans):",
        buf.totals().map(|(_, t)| t.spans).sum::<u64>()
    );
    println!(
        "    {:<36} {:>10} {:>14} {:>12} {:>8}",
        "layer", "spans", "self_ns", "self_ns/span", "share"
    );
    for (layer, t) in buf.totals() {
        println!(
            "    {:<36} {:>10} {:>14} {:>12.1} {:>7.1}%",
            layer.name(),
            t.spans,
            t.self_ns(),
            t.self_ns() as f64 / t.spans as f64,
            100.0 * t.self_ns() as f64 / roots.max(1) as f64
        );
    }
}

/// Write spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, with its request id and its parent's layer.
/// Each engine is a process, each worker a thread.
pub fn write_chrome_trace(path: &Path, engines: &[(&str, &SpanBuf)]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid, (engine, buf)) in engines.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{engine}\"}}}}",
            if first { "" } else { ",\n" }
        );
        first = false;
        for s in buf.stored() {
            let parent = s
                .layer
                .parent()
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":{parent}}}}}",
                s.layer.name(),
                s.worker,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.req
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut b = SpanBuf::new(2);
        b.record(Layer::StoreGet, 0, 0, 10, 40);
        b.record(Layer::Safepoint, 0, 0, 40, 50);
        b.record(Layer::Request, 0, 0, 0, 60);
        let t: Vec<_> = b.totals().collect();
        let req = t.iter().find(|(l, _)| *l == Layer::Request).unwrap().1;
        assert_eq!(req.total_ns, 60);
        assert_eq!(req.self_ns(), 20);
        // Only two spans are stored; the third is counted but dropped.
        assert_eq!(b.stored().len(), 2);
        assert_eq!(b.dropped(), 1);

        let mut m = SpanBuf::new(10);
        m.merge(&b);
        m.merge(&b);
        let req = m.totals().find(|(l, _)| *l == Layer::Request).unwrap().1;
        assert_eq!((req.spans, req.self_ns()), (2, 40));
        assert_eq!(m.stored().len(), 4);
        assert_eq!(m.dropped(), 2);
    }
}
