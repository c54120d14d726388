//! The anomaly flight recorder: structured wide events, incident
//! capture, and the watcher thread that connects them.
//!
//! Components emit [`Event`]s — one wide record per interesting fact
//! (failover, queue stall, scene load, batch panic) carrying level,
//! component, scene/replica, an optional trace id and free key/value
//! fields — into a bounded ring. A [`Watcher`] thread ticks the tier's
//! `watch_tick` periodically; when a tick observes a trigger (an SLO
//! burn-rate breach from the engine, or error-level events since the
//! last tick) the recorder opens an **incident**: a frozen snapshot of
//! the recent event tail and the full `/metrics` text. The incident
//! resolves after a run of clean ticks, so one record brackets the whole
//! anomaly instead of paging per-tick. `GET /events` and `GET /incidents`
//! serve the ring and the incident log as JSON.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::clock::SpanClock;
use crate::export::json_escape;
use crate::span::TraceId;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventLevel {
    /// Expected lifecycle facts (scene loaded, replica rejoined).
    Info,
    /// Degraded but self-healing (failover succeeded, shedding).
    Warn,
    /// Something was lost or is stuck (replica down, queue stall).
    Error,
}

impl EventLevel {
    /// The level's lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// One structured wide event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Absolute microseconds (stamped by the recorder at `record`).
    pub ts_us: u64,
    /// Severity.
    pub level: EventLevel,
    /// Emitting component (`worker`, `coordinator`, `watcher`, ...).
    pub component: String,
    /// What happened, one human-readable clause.
    pub message: String,
    /// The scene involved, when there is one.
    pub scene: Option<String>,
    /// The replica involved, when there is one.
    pub replica: Option<String>,
    /// The request trace the event belongs to, when there is one.
    pub trace: Option<TraceId>,
    /// Free-form key/value detail.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// A new event; the recorder stamps `ts_us` on record.
    pub fn new(level: EventLevel, component: &str, message: impl Into<String>) -> Self {
        Self {
            ts_us: 0,
            level,
            component: component.to_string(),
            message: message.into(),
            scene: None,
            replica: None,
            trace: None,
            fields: Vec::new(),
        }
    }

    /// Attaches the scene id.
    pub fn scene(mut self, scene: impl Into<String>) -> Self {
        self.scene = Some(scene.into());
        self
    }

    /// Attaches the replica id.
    pub fn replica(mut self, replica: impl Into<String>) -> Self {
        self.replica = Some(replica.into());
        self
    }

    /// Attaches the request trace id.
    pub fn trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Appends one key/value field.
    pub fn field(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"ts_us\":{},\"level\":\"{}\",\"component\":\"",
            self.ts_us,
            self.level.as_str()
        ));
        json_escape(&self.component, out);
        out.push_str("\",\"message\":\"");
        json_escape(&self.message, out);
        out.push('"');
        if let Some(scene) = &self.scene {
            out.push_str(",\"scene\":\"");
            json_escape(scene, out);
            out.push('"');
        }
        if let Some(replica) = &self.replica {
            out.push_str(",\"replica\":\"");
            json_escape(replica, out);
            out.push('"');
        }
        if let Some(trace) = &self.trace {
            out.push_str(&format!(",\"trace\":\"{trace}\""));
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, out);
                out.push_str("\":\"");
                json_escape(v, out);
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// One captured anomaly: the trigger, the event tail leading into it,
/// and a frozen `/metrics` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Monotonic incident number (1-based).
    pub id: u64,
    /// When the incident opened, absolute microseconds.
    pub opened_us: u64,
    /// When it resolved; `None` while still open.
    pub resolved_us: Option<u64>,
    /// What opened it (breached SLO names, error-event summary).
    pub trigger: String,
    /// The event-ring tail at open time (most recent last).
    pub events: Vec<Event>,
    /// The tier's full metrics text at open time.
    pub metrics_snapshot: String,
}

/// Incidents the log retains.
const MAX_INCIDENTS: usize = 32;
/// Event-ring tail frozen into an incident.
const INCIDENT_EVENTS: usize = 64;
/// Consecutive clean ticks before an open incident resolves.
const CLEAR_TICKS: u32 = 3;

#[derive(Debug, Default)]
struct IncidentLog {
    incidents: VecDeque<Incident>,
    next_id: u64,
    /// Whether the newest incident is still open.
    open: bool,
    clear_ticks: u32,
    /// `errors_total` at the last tick (new errors are a trigger).
    errors_seen: u64,
}

/// The bounded event ring + incident log of one serving tier.
#[derive(Debug)]
pub struct FlightRecorder {
    clock: SpanClock,
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    errors_total: AtomicU64,
    incidents: Mutex<IncidentLog>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            clock: SpanClock::new(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            incidents: Mutex::new(IncidentLog::default()),
        }
    }

    /// Files an event (stamping its timestamp), evicting the oldest when
    /// the ring is full.
    pub fn record(&self, mut event: Event) {
        event.ts_us = self.clock.now_us();
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if event.level == EventLevel::Error {
            self.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently held.
    pub fn held(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Error-level events ever recorded.
    pub fn errors_total(&self) -> u64 {
        self.errors_total.load(Ordering::Relaxed)
    }

    /// A copy of the ring, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// A copy of the incident log, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents
            .lock()
            .unwrap()
            .incidents
            .iter()
            .cloned()
            .collect()
    }

    /// Incidents ever opened.
    pub fn incidents_opened(&self) -> u64 {
        self.incidents.lock().unwrap().next_id
    }

    /// One watcher tick: `breaches` are the currently breached SLO names
    /// (from the engine's report); `metrics` is called only when an
    /// incident actually opens, to freeze the tier's `/metrics` text.
    ///
    /// Opens an incident when a trigger fires and none is open; keeps an
    /// open one alive while triggers persist; resolves it after three
    /// consecutive clean ticks.
    pub fn tick(&self, breaches: &[String], metrics: impl FnOnce() -> String) {
        let errors_now = self.errors_total();
        // Decide under the incident lock, but freeze the evidence outside
        // it: the `metrics` closure typically renders a registry whose
        // scrape-time gauges read this recorder's incident counter back —
        // calling it with the lock held would self-deadlock the watcher.
        let opened = {
            let mut log = self.incidents.lock().unwrap();
            let new_errors = errors_now.saturating_sub(log.errors_seen);
            log.errors_seen = errors_now;
            let mut triggers: Vec<String> = breaches
                .iter()
                .map(|name| format!("slo {name} burn-rate breach"))
                .collect();
            if new_errors > 0 {
                triggers.push(format!("{new_errors} error event(s)"));
            }
            if !triggers.is_empty() {
                log.clear_ticks = 0;
                if !log.open {
                    log.open = true;
                    log.next_id += 1;
                    Some((log.next_id, triggers.join("; ")))
                } else {
                    None
                }
            } else {
                if log.open {
                    log.clear_ticks += 1;
                    if log.clear_ticks >= CLEAR_TICKS {
                        if let Some(open) = log.incidents.back_mut() {
                            open.resolved_us = Some(self.clock.now_us());
                        }
                        log.open = false;
                        log.clear_ticks = 0;
                    }
                }
                None
            }
        };
        if let Some((id, trigger)) = opened {
            let now = self.clock.now_us();
            let ring = self.ring.lock().unwrap();
            let skip = ring.len().saturating_sub(INCIDENT_EVENTS);
            let events: Vec<Event> = ring.iter().skip(skip).cloned().collect();
            drop(ring);
            let incident = Incident {
                id,
                opened_us: now,
                resolved_us: None,
                trigger,
                events,
                metrics_snapshot: metrics(),
            };
            let mut log = self.incidents.lock().unwrap();
            if log.incidents.len() >= MAX_INCIDENTS {
                log.incidents.pop_front();
            }
            log.incidents.push_back(incident);
        }
    }
}

/// Renders the `/events` endpoint's JSON document.
pub fn events_json(events: &[Event], recorded: u64, dropped: u64) -> String {
    let mut out = format!("{{\"recorded\":{recorded},\"dropped\":{dropped},\"events\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        event.to_json(&mut out);
    }
    out.push_str("]}");
    out
}

/// Renders the `/incidents` endpoint's JSON document.
pub fn incidents_json(incidents: &[Incident]) -> String {
    let mut out = String::from("{\"incidents\":[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"opened_us\":{}",
            inc.id, inc.opened_us
        ));
        match inc.resolved_us {
            Some(us) => out.push_str(&format!(",\"resolved_us\":{us}")),
            None => out.push_str(",\"resolved_us\":null"),
        }
        out.push_str(",\"trigger\":\"");
        json_escape(&inc.trigger, &mut out);
        out.push_str("\",\"events\":[");
        for (j, event) in inc.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            event.to_json(&mut out);
        }
        out.push_str("],\"metrics_snapshot\":\"");
        json_escape(&inc.metrics_snapshot, &mut out);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// A named background thread running a closure at a fixed interval until
/// dropped. The thread waits on a condvar, so a drop interrupts the
/// current wait instead of sitting out the interval.
#[derive(Debug)]
pub struct Watcher {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watcher {
    /// Spawns the thread `name`; `tick` runs once per `interval`, first
    /// after one interval.
    pub fn spawn(name: &str, interval: Duration, mut tick: impl FnMut() + Send + 'static) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let (lock, condvar) = &*thread_stop;
                loop {
                    let stopped = lock.lock().unwrap();
                    let (stopped, _) = condvar
                        .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                        .unwrap();
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    tick();
                }
            })
            .expect("spawn watcher thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        let (lock, condvar) = &*self.stop;
        *lock.lock().unwrap() = true;
        condvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(Event::new(EventLevel::Info, "test", format!("e{i}")));
        }
        assert_eq!(rec.held(), 3);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let events = rec.events();
        assert_eq!(events[0].message, "e2");
        assert!(events.iter().all(|e| e.ts_us > 0));
    }

    #[test]
    fn error_events_open_an_incident_and_clean_ticks_resolve_it() {
        let rec = FlightRecorder::new(16);
        rec.tick(&[], || unreachable!("no trigger, no snapshot"));
        assert!(rec.incidents().is_empty());
        rec.record(Event::new(EventLevel::Error, "worker", "queue stall").field("depth", "7"));
        rec.tick(&[], || "# metrics\n".to_string());
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        assert!(incidents[0].trigger.contains("1 error event"));
        assert_eq!(incidents[0].metrics_snapshot, "# metrics\n");
        assert!(incidents[0].resolved_us.is_none());
        assert_eq!(incidents[0].events.len(), 1);
        // Still open after 2 clean ticks, resolved after the 3rd.
        rec.tick(&[], String::new);
        rec.tick(&[], String::new);
        assert!(rec.incidents()[0].resolved_us.is_none());
        rec.tick(&[], String::new);
        assert!(rec.incidents()[0].resolved_us.is_some());
        assert_eq!(rec.incidents_opened(), 1);
    }

    #[test]
    fn persistent_breach_keeps_one_incident_open() {
        let rec = FlightRecorder::new(16);
        let breaches = vec!["availability".to_string()];
        for _ in 0..5 {
            rec.tick(&breaches, || "m".to_string());
        }
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1, "one incident brackets the breach");
        assert!(incidents[0].trigger.contains("availability"));
        // New trigger after resolution opens a second incident.
        for _ in 0..CLEAR_TICKS {
            rec.tick(&[], String::new);
        }
        rec.tick(&breaches, || "m".to_string());
        assert_eq!(rec.incidents().len(), 2);
    }

    #[test]
    fn json_documents_are_escaped_and_structured() {
        let rec = FlightRecorder::new(8);
        rec.record(
            Event::new(EventLevel::Warn, "coordinator", "failover \"r0\" → r1")
                .scene("city")
                .replica("r0")
                .trace(TraceId(0xabcd))
                .field("attempt", "1"),
        );
        let json = events_json(&rec.events(), rec.recorded(), rec.dropped());
        assert!(json.contains("\"level\":\"warn\""));
        assert!(json.contains("\\\"r0\\\""));
        assert!(json.contains("\"scene\":\"city\""));
        assert!(json.contains("\"fields\":{\"attempt\":\"1\"}"));
        rec.tick(&["latency".to_string()], || "x\ny".to_string());
        let ijson = incidents_json(&rec.incidents());
        assert!(ijson.contains("\"resolved_us\":null"));
        assert!(ijson.contains("\"metrics_snapshot\":\"x\\ny\""));
    }

    #[test]
    fn metrics_closure_may_read_the_recorder_back() {
        // The metrics snapshot is rendered by a registry whose scrape-time
        // gauges read this recorder's own counters (incidents_opened,
        // held, ...). The tick must not hold any recorder lock across the
        // closure, or the first incident ever opened parks the watcher.
        let rec = FlightRecorder::new(8);
        rec.record(Event::new(EventLevel::Error, "test", "boom"));
        rec.tick(&[], || {
            format!(
                "gs_incidents_total {} held {}",
                rec.incidents_opened(),
                rec.held()
            )
        });
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].metrics_snapshot, "gs_incidents_total 1 held 1");
    }

    #[test]
    fn watcher_ticks_and_stops_on_drop() {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let watcher = Watcher::spawn("test-watcher", Duration::from_millis(5), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while count.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(count.load(Ordering::Relaxed) >= 3);
        drop(watcher);
        let frozen = count.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(30));
        assert!(count.load(Ordering::Relaxed) <= frozen + 1);
    }
}
