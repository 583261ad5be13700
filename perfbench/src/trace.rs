//! Span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into a layer's public function; the program under test carries no
//! tracing. Each recorder belongs to one thread and keeps its spans in
//! memory; they are merged and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run: the recorder's lane in the top 16 bits.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request (or one probe iteration).
    pub req: u64,
    /// Layer function the span wraps, e.g. `serve.cache.get_or_parse`.
    pub name: &'static str,
    /// Request kind or probe variant, e.g. `timing`, `miss`.
    pub tag: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Work size the span covered (bytes, samples x ops, ...); 0 if none.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u16) -> Self {
        Tracer {
            epoch,
            lane: u64::from(lane) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<u64>,
        req: u64,
    ) -> u64 {
        let id = self.lane | self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        id
    }

    /// Closes the most recently opened span with id `id`, recording `work`.
    pub fn close(&mut self, id: u64, work: u64) {
        let end = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span this tracer opened");
        span.end_ns = end;
        span.work = work;
    }

    /// Runs `f` inside a span covering `work`.
    pub fn span<R>(
        &mut self,
        (name, tag): (&'static str, &'static str),
        parent: Option<u64>,
        req: u64,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, tag, parent, req);
        let out = std::hint::black_box(f());
        self.close(id, work);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as JSON lines, one object per span, self time included.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"work\":{}}}",
            s.id, s.req, s.name, s.tag, s.start_ns, s.end_ns, s.work
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "x",
            tag: "",
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(self_times(&spans), vec![50, 20, 30, 30]);
    }
}
