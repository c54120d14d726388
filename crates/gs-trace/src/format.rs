//! The `GSTR` binary trace format: a compact, versioned, length-prefixed
//! encoding of a request workload.
//!
//! A trace is the unit of exchange between the capture side (the
//! [`crate::TraceRecorder`] hooked into the serving front-ends), the
//! synthetic generators and the replayer: a flat sequence of
//! [`TraceEvent`]s ordered by arrival time. The encoding follows the same
//! rules as the other wire formats in the workspace (`GSL1`/`GSSC` in
//! `gs-serve::wire`): little-endian, magic-prefixed, versioned, and
//! **lossless** — `decode(encode(t))` reproduces every event bit for bit,
//! including pathological `f32` pose values, so a replayed camera is the
//! recorded camera.
//!
//! Layout:
//!
//! ```text
//! "GSTR" | u32 version | u32 event count | event*
//! event: u32 payload length | payload
//! payload:
//!   u64 at_us                       arrival, µs from trace start
//!   u16 len + bytes                 scene id (UTF-8)
//!   u16 len + bytes                 client/session id (UTF-8)
//!   f32 ×10                         pos[3] target[3] up[3] fov_x
//!   u32 width | u32 height          image size in pixels
//!   u8 sh_degree
//!   u32 deadline_ms                 0 = no deadline
//!   u8 outcome                      see [`Outcome`]
//!   u64 latency_us                  observed service latency (0 if unknown)
//! ```
//!
//! Every record carries its own length prefix so a reader can skip records
//! it does not understand *within* a version, and the decoder rejects
//! truncated, corrupt or wrong-version blobs instead of misparsing them.

use std::fmt;

/// Magic prefix of an encoded trace.
pub const TRACE_MAGIC: &[u8; 4] = b"GSTR";

/// Current format version. Decoders reject any other version.
pub const TRACE_VERSION: u32 = 1;

/// Largest event count a decoder will allocate for (a 1-billion-event blob
/// is corrupt or hostile, not a workload).
pub const MAX_TRACE_EVENTS: usize = 64 << 20;

/// Largest scene/client id length on the wire.
pub const MAX_TRACE_ID_LEN: usize = 256;

/// A malformed or invalid trace blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

fn err(msg: impl Into<String>) -> TraceError {
    TraceError(msg.into())
}

/// How the service answered a recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Rendered and delivered.
    #[default]
    Completed = 0,
    /// Answered from a frame cache (server- or coordinator-side).
    CacheHit = 1,
    /// Answered with an error (unknown scene, internal failure).
    Error = 2,
    /// Deadline passed while queued; answered without rendering.
    Expired = 3,
    /// Cancelled while queued (client disconnected).
    Cancelled = 4,
    /// Rejected up front (admission control, shutdown, connection limit).
    Rejected = 5,
}

impl Outcome {
    /// All outcomes, in tag order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Completed,
        Outcome::CacheHit,
        Outcome::Error,
        Outcome::Expired,
        Outcome::Cancelled,
        Outcome::Rejected,
    ];

    /// The wire tag.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire tag.
    pub fn from_u8(tag: u8) -> Option<Self> {
        Outcome::ALL.get(tag as usize).copied()
    }

    /// Whether the request was answered with a frame.
    pub fn is_served(self) -> bool {
        matches!(self, Outcome::Completed | Outcome::CacheHit)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Completed => "completed",
            Outcome::CacheHit => "cache_hit",
            Outcome::Error => "error",
            Outcome::Expired => "expired",
            Outcome::Cancelled => "cancelled",
            Outcome::Rejected => "rejected",
        })
    }
}

/// One recorded (or synthesized) render request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time in microseconds from the trace start.
    pub at_us: u64,
    /// Scene id.
    pub scene: String,
    /// Client/session id (peer address when the client did not name one).
    pub client: String,
    /// Camera center.
    pub position: [f32; 3],
    /// Look-at target.
    pub target: [f32; 3],
    /// Up direction.
    pub up: [f32; 3],
    /// Horizontal field of view in radians.
    pub fov_x: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// SH degree used for color.
    pub sh_degree: u8,
    /// Deadline in milliseconds (`0` = none).
    pub deadline_ms: u32,
    /// How the service answered.
    pub outcome: Outcome,
    /// Observed service latency in microseconds (`0` when unknown, e.g. in
    /// synthetic traces that were never replayed).
    pub latency_us: u64,
}

impl TraceEvent {
    /// An event with the given identity and a default camera/size; callers
    /// fill in the pose.
    pub fn new(at_us: u64, scene: impl Into<String>, client: impl Into<String>) -> Self {
        Self {
            at_us,
            scene: scene.into(),
            client: client.into(),
            position: [0.0, 0.0, -8.0],
            target: [0.0, 0.0, 0.0],
            up: [0.0, 1.0, 0.0],
            fov_x: 1.0,
            width: 64,
            height: 48,
            sh_degree: 3,
            deadline_ms: 0,
            outcome: Outcome::Completed,
            latency_us: 0,
        }
    }

    fn encoded_len(&self) -> usize {
        8 + 2 + self.scene.len() + 2 + self.client.len() + 40 + 4 + 4 + 1 + 4 + 1 + 8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at_us.to_le_bytes());
        push_str(out, &self.scene);
        push_str(out, &self.client);
        for v in self
            .position
            .iter()
            .chain(&self.target)
            .chain(&self.up)
            .chain(std::iter::once(&self.fov_x))
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.push(self.sh_degree);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.push(self.outcome.as_u8());
        out.extend_from_slice(&self.latency_us.to_le_bytes());
    }

    fn decode(payload: &[u8], index: usize) -> Result<Self, TraceError> {
        let mut r = Reader {
            bytes: payload,
            at: 0,
            index,
        };
        let at_us = r.u64("at_us")?;
        let scene = r.string("scene")?;
        let client = r.string("client")?;
        let mut pose = [0.0f32; 10];
        for (i, slot) in pose.iter_mut().enumerate() {
            *slot = r.f32(&format!("pose[{i}]"))?;
        }
        let width = r.u32("width")?;
        let height = r.u32("height")?;
        let sh_degree = r.u8("sh_degree")?;
        let deadline_ms = r.u32("deadline_ms")?;
        let outcome_tag = r.u8("outcome")?;
        let outcome = Outcome::from_u8(outcome_tag)
            .ok_or_else(|| err(format!("event {index}: unknown outcome tag {outcome_tag}")))?;
        let latency_us = r.u64("latency_us")?;
        if r.at != payload.len() {
            return Err(err(format!(
                "event {index}: {} trailing bytes after the payload",
                payload.len() - r.at
            )));
        }
        Ok(Self {
            at_us,
            scene,
            client,
            position: [pose[0], pose[1], pose[2]],
            target: [pose[3], pose[4], pose[5]],
            up: [pose[6], pose[7], pose[8]],
            fov_x: pose[9],
            width,
            height,
            sh_degree,
            deadline_ms,
            outcome,
            latency_us,
        })
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_TRACE_ID_LEN);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over one event payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    index: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], TraceError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| err(format!("event {}: truncated before {what}", self.index)))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, TraceError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TraceError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f32(&mut self, what: &str) -> Result<f32, TraceError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self, what: &str) -> Result<String, TraceError> {
        let len = {
            let b = self.take(2, what)?;
            u16::from_le_bytes([b[0], b[1]]) as usize
        };
        if len > MAX_TRACE_ID_LEN {
            return Err(err(format!(
                "event {}: {what} id is {len} bytes, limit is {MAX_TRACE_ID_LEN}",
                self.index
            )));
        }
        let index = self.index;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| err(format!("event {index}: {what} id is not UTF-8")))
    }
}

/// An ordered workload: the unit the recorder produces and the replayer
/// consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Events in arrival order (`at_us` non-decreasing).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace over the given events, sorted into arrival order.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.at_us);
        Self { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges traces into one workload on a shared timeline.
    ///
    /// Events from every input are interleaved by arrival time; the sort is
    /// stable, so simultaneous events keep input order and the merge is
    /// deterministic. This is how mixed-tier workloads are composed for
    /// replay — e.g. steady Zipf traffic with a flash crowd arriving on
    /// top of it.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Self {
        Self::new(traces.into_iter().flat_map(|t| t.events).collect())
    }

    /// Arrival span in microseconds (last event's `at_us`).
    pub fn duration_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_us)
    }

    /// Sorted, deduplicated scene ids appearing in the trace.
    pub fn scene_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.events.iter().map(|e| e.scene.clone()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Sorted, deduplicated client ids appearing in the trace.
    pub fn client_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.events.iter().map(|e| e.client.clone()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Encodes the trace into a `GSTR` blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.events.len() * 96);
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for event in &self.events {
            out.extend_from_slice(&(event.encoded_len() as u32).to_le_bytes());
            event.encode_into(&mut out);
        }
        out
    }

    /// Decodes a `GSTR` blob.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on a bad magic, an unsupported version, or any
    /// truncated/corrupt record.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < 12 || &bytes[..4] != TRACE_MAGIC {
            return Err(err("not a GSTR trace (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != TRACE_VERSION {
            return Err(err(format!(
                "unsupported trace version {version} (this build reads {TRACE_VERSION})"
            )));
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if count > MAX_TRACE_EVENTS {
            return Err(err(format!(
                "trace claims {count} events, limit is {MAX_TRACE_EVENTS}"
            )));
        }
        let mut events = Vec::with_capacity(count.min(1 << 16));
        let mut at = 12usize;
        for index in 0..count {
            let end = at
                .checked_add(4)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| err(format!("truncated before event {index}'s length")))?;
            let len = u32::from_le_bytes(bytes[at..end].try_into().unwrap()) as usize;
            let payload_end = end
                .checked_add(len)
                .filter(|&pe| pe <= bytes.len())
                .ok_or_else(|| err(format!("truncated inside event {index}")))?;
            events.push(TraceEvent::decode(&bytes[end..payload_end], index)?);
            at = payload_end;
        }
        if at != bytes.len() {
            return Err(err(format!(
                "{} trailing bytes after the last event",
                bytes.len() - at
            )));
        }
        Ok(Self { events })
    }

    /// Writes the encoded trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads and decodes a trace from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} events, {} scenes, {} clients, {:.2}s span",
            self.len(),
            self.scene_ids().len(),
            self.client_ids().len(),
            self.duration_us() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_event(i: u64) -> TraceEvent {
        let mut e = TraceEvent::new(i * 1000, format!("scene-{}", i % 3), format!("client-{i}"));
        e.position = [i as f32, -(i as f32) * 0.5, -8.0];
        e.fov_x = 1.1;
        e.deadline_ms = if i.is_multiple_of(2) { 250 } else { 0 };
        e.outcome = Outcome::ALL[(i % 6) as usize];
        e.latency_us = 100 + i;
        e
    }

    fn demo_trace(n: u64) -> Trace {
        Trace::new((0..n).map(demo_event).collect())
    }

    #[test]
    fn merge_interleaves_by_arrival_and_is_stable() {
        let mut steady = demo_trace(5); // at_us 0, 1000, ..., 4000
        for e in &mut steady.events {
            e.client = "steady".to_string();
        }
        let mut burst = Trace::new(vec![demo_event(1), demo_event(3)]);
        for e in &mut burst.events {
            e.client = "burst".to_string();
        }
        let merged = Trace::merge([steady.clone(), burst.clone()]);
        assert_eq!(merged.len(), steady.len() + burst.len());
        assert!(
            merged.events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "merged events must stay in arrival order"
        );
        // Simultaneous events keep input order: the steady trace was passed
        // first, so its event at t=1000 precedes the burst's.
        let at_1000: Vec<&str> = merged
            .events
            .iter()
            .filter(|e| e.at_us == 1000)
            .map(|e| e.client.as_str())
            .collect();
        assert_eq!(at_1000, ["steady", "burst"]);
        // Deterministic: merging the same inputs again is identical.
        assert_eq!(merged, Trace::merge([steady, burst]));
    }

    #[test]
    fn roundtrip_is_exact() {
        let trace = demo_trace(17);
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(Trace::decode(&Trace::default().encode()).unwrap().len(), 0);
    }

    #[test]
    fn roundtrip_preserves_pathological_f32_poses_bit_for_bit() {
        let mut e = demo_event(0);
        e.position = [f32::MIN_POSITIVE, 0.1 + 0.2, -1.0e-7];
        e.target = [f32::MAX, -f32::MIN_POSITIVE / 2.0, 1.0e-38];
        e.up = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        e.fov_x = f32::from_bits(0x0000_0001); // smallest subnormal
        let trace = Trace { events: vec![e] };
        let decoded = Trace::decode(&trace.encode()).unwrap();
        let (a, b) = (&decoded.events[0], &trace.events[0]);
        for (x, y) in [(a.position, b.position), (a.target, b.target), (a.up, b.up)] {
            for (xv, yv) in x.iter().zip(&y) {
                assert_eq!(xv.to_bits(), yv.to_bits(), "pose floats must be lossless");
            }
        }
        assert_eq!(a.fov_x.to_bits(), b.fov_x.to_bits());
    }

    #[test]
    fn truncations_at_every_boundary_are_rejected() {
        let encoded = demo_trace(3).encode();
        for cut in 0..encoded.len() {
            assert!(
                Trace::decode(&encoded[..cut]).is_err(),
                "truncation at {cut}/{} must be rejected",
                encoded.len()
            );
        }
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let encoded = demo_trace(4).encode();
        // Wrong magic.
        let mut bad = encoded.clone();
        bad[0] = b'X';
        assert!(Trace::decode(&bad).is_err());
        // Wrong version.
        let mut bad = encoded.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(Trace::decode(&bad).is_err());
        // Hostile event count.
        let mut bad = encoded.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trace::decode(&bad).is_err());
        // Corrupt first record length (points past the end).
        let mut bad = encoded.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trace::decode(&bad).is_err());
        // Record length shrunk: the payload decodes short.
        let mut bad = encoded.clone();
        let len = u32::from_le_bytes(bad[12..16].try_into().unwrap());
        bad[12..16].copy_from_slice(&(len - 1).to_le_bytes());
        assert!(Trace::decode(&bad).is_err());
        // Bad outcome tag (last 9 bytes of a record are outcome + latency).
        let first_record_end = 16 + len as usize;
        let mut bad = encoded.clone();
        bad[first_record_end - 9] = 200;
        assert!(Trace::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = encoded.clone();
        bad.extend_from_slice(&[0u8; 3]);
        assert!(Trace::decode(&bad).is_err());
        // Oversized string length inside the first record.
        let mut bad = encoded;
        bad[24..26].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(Trace::decode(&bad).is_err());
    }

    #[test]
    fn new_sorts_events_into_arrival_order() {
        let mut events: Vec<TraceEvent> = (0..5).map(demo_event).collect();
        events.reverse();
        let trace = Trace::new(events);
        for pair in trace.events.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
        }
        assert_eq!(trace.duration_us(), 4000);
        assert_eq!(trace.scene_ids(), vec!["scene-0", "scene-1", "scene-2"]);
    }

    #[test]
    fn outcome_tags_roundtrip() {
        for outcome in Outcome::ALL {
            assert_eq!(Outcome::from_u8(outcome.as_u8()), Some(outcome));
        }
        assert_eq!(Outcome::from_u8(6), None);
        assert!(Outcome::CacheHit.is_served());
        assert!(!Outcome::Expired.is_served());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("gs-trace-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.gstr");
        let trace = demo_trace(8);
        trace.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), trace);
        std::fs::write(&path, b"not a trace").unwrap();
        assert!(Trace::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
