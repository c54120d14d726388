//! The benchmark's own span recorder: spans are taken from outside the
//! program, around the calls into each layer, kept in memory and written as
//! a Chrome trace when the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Ids are 1-based positions in the recorder; parent `0`
/// means a top-level span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: u32,
    /// The operation this span belongs to (spans of one op share it).
    pub op: u32,
    pub tid: u32,
}

/// In-memory span store shared by the benchmark's threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        (layer, name): (&'static str, &'static str),
        parent: u32,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            layer,
            name,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
            parent,
            op,
            tid: thread_index(),
        };
        let mut spans = self.spans.lock().expect("recorder lock poisoned");
        spans.push(span);
        spans.len() as u32
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock poisoned").clone()
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans().into_iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.layer.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num((i + 1) as f64)),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("op", Json::Num(f64::from(s.op))),
                    ]),
                ),
            ])
        });
        Json::obj([("traceEvents", Json::Arr(events.collect()))])
    }
}

/// Self time of span `id`: its duration minus its direct children's.
pub fn self_time_us(spans: &[Span], id: u32) -> f64 {
    let own = &spans[id as usize - 1];
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| s.end_us - s.start_us)
        .sum();
    own.end_us - own.start_us - children
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children_and_trace_parses_back() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let op = rec.record(("bench", "op"), 0, 7, at(0), at(10));
        rec.record(("gs-render", "forward"), op, 7, at(1), at(5));
        rec.record(("gs-serve", "wire_encode"), op, 7, at(5), at(7));
        let other = rec.record(("bench", "op"), 0, 8, at(10), at(12));
        let spans = rec.spans();
        assert!((self_time_us(&spans, op) - 4000.0).abs() < 1.0);
        assert!((self_time_us(&spans, other) - 2000.0).abs() < 1.0);

        let doc = rec.chrome_trace();
        let parsed = Json::parse(&doc.to_line()).unwrap();
        assert_eq!(parsed, doc);
        match parsed.get("traceEvents") {
            Some(Json::Arr(events)) => assert_eq!(events.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }
}
