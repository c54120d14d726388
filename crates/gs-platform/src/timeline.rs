//! Event-graph execution-timeline simulator.
//!
//! Training with host offloading is a dataflow over four hardware streams:
//! GPU compute, CPU compute, host-to-device copies and device-to-host copies.
//! [`TimelineSim`] schedules named events onto those streams, respecting both
//! stream serialization (one event at a time per stream) and explicit
//! dependency edges, and reports the makespan, per-stream busy time and
//! per-label breakdowns.
//!
//! This is what turns the per-kernel durations from the roofline model into
//! the end-to-end iteration times of Figures 7, 9, 11, 14, 15 and 16: the
//! GPU-only and baseline-offloading systems' models build mostly-serial
//! graphs, while GS-Scale's *parameter forwarding* creates the overlapping
//! structure of Figure 9c/9d.

use std::collections::BTreeMap;

/// A hardware execution stream (one queue, events run serially per stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stream {
    /// GPU compute queue.
    GpuCompute,
    /// Host CPU compute.
    CpuCompute,
    /// Host-to-device PCIe copies.
    HostToDevice,
    /// Device-to-host PCIe copies.
    DeviceToHost,
}

impl Stream {
    /// All streams in display order.
    pub const ALL: [Stream; 4] = [
        Stream::GpuCompute,
        Stream::CpuCompute,
        Stream::HostToDevice,
        Stream::DeviceToHost,
    ];
}

/// Identifier of a scheduled event, usable as a dependency for later events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// One scheduled event on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Stream the event ran on.
    pub stream: Stream,
    /// Phase label (e.g. `"frustum_cull"`, `"optimizer"`).
    pub label: String,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

impl Event {
    /// Event duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Discrete-event timeline over the four hardware streams.
#[derive(Debug, Clone, Default)]
pub struct TimelineSim {
    events: Vec<Event>,
    stream_free: BTreeMap<Stream, f64>,
}

impl TimelineSim {
    /// Creates an empty timeline at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event of `duration` seconds on `stream`, starting no
    /// earlier than the completion of every event in `deps` and no earlier
    /// than the stream's previous event.
    ///
    /// Returns an [`EventId`] usable as a dependency for later events.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or a dependency id is invalid.
    pub fn schedule(
        &mut self,
        stream: Stream,
        label: impl Into<String>,
        duration: f64,
        deps: &[EventId],
    ) -> EventId {
        assert!(duration >= 0.0, "event duration must be non-negative");
        let mut start = self.stream_free.get(&stream).copied().unwrap_or(0.0);
        for dep in deps {
            assert!(dep.0 < self.events.len(), "invalid dependency id");
            start = start.max(self.events[dep.0].end);
        }
        let end = start + duration;
        self.stream_free.insert(stream, end);
        self.events.push(Event {
            stream,
            label: label.into(),
            start,
            end,
        });
        EventId(self.events.len() - 1)
    }

    /// All scheduled events, in scheduling order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Completion time of the last event (0 for an empty timeline).
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Total busy time of one stream.
    pub fn busy_time(&self, stream: Stream) -> f64 {
        self.events
            .iter()
            .filter(|e| e.stream == stream)
            .map(Event::duration)
            .sum()
    }

    /// Adds the total time spent in events with each label to `acc`, the
    /// per-label breakdown of one or (accumulated) many timelines.
    pub fn accumulate_breakdown(&self, acc: &mut BTreeMap<String, f64>) {
        for e in &self.events {
            *acc.entry(e.label.clone()).or_insert(0.0) += e.duration();
        }
    }

    /// Verifies that no two events on the same stream overlap and that every
    /// event starts at a non-negative time. Returns `true` when consistent.
    pub fn is_consistent(&self) -> bool {
        for s in Stream::ALL {
            let mut intervals: Vec<(f64, f64)> = self
                .events
                .iter()
                .filter(|e| e.stream == s)
                .map(|e| (e.start, e.end))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                if w[1].0 < w[0].1 - 1e-12 {
                    return false;
                }
            }
        }
        self.events
            .iter()
            .all(|e| e.start >= 0.0 && e.end >= e.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_events_on_one_stream_do_not_overlap() {
        let mut sim = TimelineSim::new();
        sim.schedule(Stream::GpuCompute, "a", 1.0, &[]);
        sim.schedule(Stream::GpuCompute, "b", 2.0, &[]);
        let ends: Vec<f64> = sim.events().iter().map(|e| e.end).collect();
        assert_eq!(ends, [1.0, 3.0]);
        assert!(sim.is_consistent());
    }

    #[test]
    fn independent_streams_overlap() {
        let mut sim = TimelineSim::new();
        sim.schedule(Stream::GpuCompute, "gpu work", 2.0, &[]);
        sim.schedule(Stream::CpuCompute, "cpu work", 3.0, &[]);
        assert_eq!(sim.makespan(), 3.0);
        assert_eq!(sim.busy_time(Stream::GpuCompute), 2.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut sim = TimelineSim::new();
        let a = sim.schedule(Stream::CpuCompute, "produce", 1.5, &[]);
        let _b = sim.schedule(Stream::GpuCompute, "consume", 1.0, &[a]);
        let consume = sim.events().last().unwrap();
        assert_eq!(consume.start, 1.5);
        assert_eq!(sim.makespan(), 2.5);
    }

    #[test]
    fn pipelining_reduces_makespan_vs_serial() {
        // Two iterations of (cpu 1s -> gpu 1s). Serial: 4s. Pipelined (the
        // GPU of iteration k overlaps the CPU of iteration k+1): 3s.
        let mut serial = TimelineSim::new();
        let mut prev = None;
        for _ in 0..2 {
            let deps: Vec<EventId> = prev.into_iter().collect();
            let c = serial.schedule(Stream::CpuCompute, "cpu", 1.0, &deps);
            let g = serial.schedule(Stream::GpuCompute, "gpu", 1.0, &[c]);
            prev = Some(g);
        }
        assert_eq!(serial.makespan(), 4.0);

        let mut pipelined = TimelineSim::new();
        let c0 = pipelined.schedule(Stream::CpuCompute, "cpu", 1.0, &[]);
        let _g0 = pipelined.schedule(Stream::GpuCompute, "gpu", 1.0, &[c0]);
        // The next iteration's CPU work does not wait for the GPU.
        let c1 = pipelined.schedule(Stream::CpuCompute, "cpu", 1.0, &[c0]);
        let _g1 = pipelined.schedule(Stream::GpuCompute, "gpu", 1.0, &[c1]);
        assert_eq!(pipelined.makespan(), 3.0);
        assert!(pipelined.is_consistent());
    }

    #[test]
    fn breakdown_sums_label_durations() {
        let mut sim = TimelineSim::new();
        sim.schedule(Stream::CpuCompute, "optimizer", 1.0, &[]);
        sim.schedule(Stream::CpuCompute, "optimizer", 2.0, &[]);
        sim.schedule(Stream::GpuCompute, "fwd", 0.5, &[]);
        let mut breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut breakdown);
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown["optimizer"], 3.0);
        // A second timeline adds to the same labels.
        sim.accumulate_breakdown(&mut breakdown);
        assert_eq!(breakdown["optimizer"], 6.0);
        assert_eq!(breakdown["fwd"], 1.0);
    }

    #[test]
    fn empty_timeline_has_zero_makespan() {
        let sim = TimelineSim::new();
        assert_eq!(sim.makespan(), 0.0);
        assert!(sim.is_consistent());
    }

    #[test]
    #[should_panic(expected = "duration must be non-negative")]
    fn negative_duration_panics() {
        TimelineSim::new().schedule(Stream::GpuCompute, "bad", -1.0, &[]);
    }
}
