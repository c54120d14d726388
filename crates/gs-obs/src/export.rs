//! Trace export: Chrome trace-event JSON.
//!
//! [`chrome_trace_json`] writes the [catapult trace-event
//! format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! (`{"traceEvents": [...]}` with `"ph": "X"` complete events), loadable
//! in `chrome://tracing` and Perfetto. Each trace gets its own `tid` row
//! so concurrent requests do not interleave; the node a span ran on and
//! the trace id ride in `args`.

use crate::sink::FinishedTrace;

pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders finished traces as one Chrome trace-event JSON document.
pub fn chrome_trace_json(traces: &[FinishedTrace]) -> String {
    let mut out =
        String::with_capacity(256 + traces.iter().map(|t| t.spans.len()).sum::<usize>() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (row, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            json_escape(&span.name, &mut out);
            out.push_str("\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":");
            out.push_str(&span.start_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&span.dur_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&(row + 1).to_string());
            out.push_str(",\"args\":{\"trace\":\"");
            json_escape(&span.trace.to_string(), &mut out);
            out.push_str("\",\"node\":\"");
            json_escape(&span.node, &mut out);
            out.push_str("\",\"span\":");
            out.push_str(&span.id.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&span.parent.to_string());
            out.push_str("}}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanRecord, TraceId};

    fn demo() -> FinishedTrace {
        let t = TraceId(0xabcd);
        FinishedTrace {
            trace: t,
            spans: vec![
                SpanRecord {
                    trace: t,
                    id: 1,
                    parent: 0,
                    name: "request".into(),
                    node: "coordinator".into(),
                    start_us: 1000,
                    dur_us: 500,
                },
                SpanRecord {
                    trace: t,
                    id: 2,
                    parent: 1,
                    name: "relay:\"s\"@0".into(),
                    node: "replica-0".into(),
                    start_us: 1100,
                    dur_us: 300,
                },
                SpanRecord {
                    trace: t,
                    id: 3,
                    parent: 2,
                    name: "raster".into(),
                    node: "replica-0".into(),
                    start_us: 1150,
                    dur_us: 200,
                },
            ],
        }
    }

    #[test]
    fn chrome_export_is_balanced_json_with_complete_events() {
        let json = chrome_trace_json(&[demo(), demo()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"ts\":1000"));
        assert!(json.contains("\"dur\":500"));
        // The quote inside the span name is escaped, and the two traces
        // land on distinct tid rows.
        assert!(json.contains("relay:\\\"s\\\"@0"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"node\":\"replica-0\""));
        // Empty input is still a valid document.
        let empty = chrome_trace_json(&[]);
        assert!(empty.contains("\"traceEvents\":[]"));
    }
}
