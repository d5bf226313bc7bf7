//! Benchmark-side spans for the traced run: kept in memory and written out
//! once, at the end, as a Chrome/Perfetto trace-event JSON file.

use std::fmt::Write as _;
use std::time::Instant;

use crate::target::nanos;

/// Spans beyond this many are counted, not kept.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Thread lanes in the written trace.
pub const TID_BENCH: u32 = 1;
pub const TID_FEEDER: u32 = 2;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: its id is fixed when it begins, so children recorded
/// before it ends can name it as parent.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn end(&mut self, open: Open) {
        let start_ns = nanos(open.start - self.epoch);
        let end_ns = nanos(Instant::now() - self.epoch);
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: TID_BENCH,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span measured elsewhere (offsets from the epoch).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.push(Span {
            id,
            parent,
            name,
            tid,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace-event JSON document; `metadata` is a JSON object body
    /// (without braces) placed under `otherData`.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
        out.push_str(metadata);
        out.push_str("},\"traceEvents\":[");
        let mut spans = self.spans.clone();
        spans.sort_by_key(|span| (span.start_ns, span.id));
        for (index, span) in spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":{},\"parent\":{}}}}}",
                span.name,
                span.tid,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.id,
                span.parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.begin("root", 0);
        let child = spans.begin("child", root.id);
        spans.end(child);
        spans.record("feeder", root.id, TID_FEEDER, 5, 10);
        spans.end(root);
        assert_eq!(spans.len(), 3);
        let json = spans.chrome_json("\"seed\":1");
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains(&format!("\"parent\":{}", root.id)));
        assert!(json.starts_with("{\"displayTimeUnit\""));
    }
}
