//! One run of one workload: set-up, warm-up, the measured closed loop, the
//! output check, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::{self, Segment};
use crate::trace::{self_time_us, Recorder};

/// Measured segments per run; throughput is the median over them.
const SEGMENTS: usize = 5;
/// Set-ups per untraced run; `setup_s` is the median over them.
const SETUP_REPS: usize = 5;
/// Name of the span around a probed op's top-level call; the spans directly
/// beneath it are the op's attributed parts.
pub const PROBE_OP: &str = "probe_op";
/// Every how many ops a served frame is compared with a direct render.
pub const VERIFY_EVERY: u64 = 50;

/// One completed operation of the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Completion time in seconds since the loop started.
    pub end_s: f64,
    /// Submit-to-reply latency in milliseconds.
    pub lat_ms: f64,
}

/// Operations attempted and operations that failed or were wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// The platform model's view of the workload, taken over the fixed warm-up
/// op list so that it repeats exactly for a seed.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub images_per_s: f64,
    pub peak_gpu_mb: f64,
}

/// What every workload implements. Building one (see
/// [`crate::workloads::build`]) is its set-up: scene generation, ground
/// truth, bring-up, load and the first op on every scene.
pub trait Workload {
    /// The fixed warm-up op list; its results are discarded.
    fn warm_up(&mut self);
    /// Runs the closed loop for `seconds`, recording an op span per
    /// operation when `rec` is given.
    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Vec<OpSample>;
    /// Checks the outputs kept during [`Workload::run`] and returns the
    /// totals since set-up.
    fn verify(&mut self) -> Tally;
    fn model(&self) -> Model;
    /// Replays a sample of ops through the layer functions, one span each.
    fn probe(&mut self, rec: &Recorder, layers: &mut Layers);
}

/// Per-layer results of a traced run: each metric summed over the probed
/// ops in its own unit, plus directly set shares and one-off times.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
    /// Ops the probe pass replayed; summed metrics are reported per op.
    pub ops: u64,
}

impl Layers {
    /// Times `f` as a child span of `parent`, adds the time to `metric`
    /// (`"<layer>.<name>_us"` or `_ms`) and returns the span's id.
    pub fn timed<T>(
        &mut self,
        rec: &Recorder,
        metric: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let id = rec.record(split_metric(metric), parent, op, start, end);
        let scale = if metric.ends_with("_ms") { 1e3 } else { 1e6 };
        self.add(metric, (end - start).as_secs_f64() * scale);
        (out, id)
    }

    /// Adds a count (or a share to be averaged over ops) to `metric`.
    pub fn add(&mut self, metric: &'static str, amount: f64) {
        *self.sums.entry(metric).or_default() += amount;
    }

    /// Sets a share, count or one-off time directly.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// The sum recorded so far under `metric`.
    pub fn sum(&self, metric: &str) -> f64 {
        self.sums.get(metric).copied().unwrap_or(0.0)
    }

    fn value(&self, metric: &str) -> f64 {
        match self.values.get(metric) {
            Some(v) => *v,
            None => self.sum(metric) / self.ops.max(1) as f64,
        }
    }
}

/// `"gs-render.cull_us"` → `("gs-render", "cull_us")`.
fn split_metric(metric: &'static str) -> (&'static str, &'static str) {
    metric.split_once('.').unwrap_or(("bench", metric))
}

/// How the probed ops' time divides: each layer's share (its spans
/// directly beneath a `probe_op` span) and, under `"unattributed"`, the
/// share no child span covers.
pub fn layer_shares(rec: &Recorder) -> BTreeMap<&'static str, f64> {
    let spans = rec.spans();
    let is_op = |id: u32| id > 0 && spans[id as usize - 1].name == PROBE_OP;
    let mut shares = BTreeMap::new();
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 && s.name == PROBE_OP {
            total += s.end_us - s.start_us;
            *shares.entry("unattributed").or_default() += self_time_us(&spans, i as u32 + 1);
        } else if is_op(s.parent) {
            *shares.entry(s.layer).or_default() += s.end_us - s.start_us;
        }
    }
    for share in shares.values_mut() {
        *share /= f64::max(total, 1e-9);
    }
    shares
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Splits the loop's `seconds` into `count` equal spans and makes a segment
/// of the ops that completed in each. A segment's wall time runs from the
/// last completion before it to its own last completion, so a handful of
/// long ops is not quantized by the span edges. Ops still in flight at the
/// deadline count toward latency, not throughput.
fn segments(samples: &[OpSample], seconds: f64, count: usize) -> Vec<Segment> {
    let width = seconds / count as f64;
    let mut ends: Vec<f64> = samples
        .iter()
        .map(|s| s.end_s)
        .filter(|&e| e <= seconds)
        .collect();
    ends.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(count);
    let (mut next, mut from) = (0, 0.0);
    for k in 1..=count {
        let first = next;
        while next < ends.len() && ends[next] <= width * k as f64 {
            next += 1;
        }
        let ops = (next - first) as u64;
        let to = if ops > 0 {
            ends[next - 1]
        } else {
            width * k as f64
        };
        out.push(Segment {
            ops,
            wall_s: to - from,
        });
        from = to;
    }
    out
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn result_line(tally: Tally, sound: bool, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        (
            "correct",
            Json::Bool(sound && tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs `name` untraced and returns the end-to-end result line.
pub fn run_end_to_end(build: &dyn Fn() -> Box<dyn Workload>, seconds: f64) -> Json {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // The previous world's tear-down is not part of a set-up.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(build());
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    workload.warm_up();

    let samples = workload.run(seconds, None);
    let tally = workload.verify();
    let model = workload.model();
    drop(workload);

    let segments = segments(&samples, seconds, SEGMENTS);
    let lat: Vec<f64> = samples.iter().map(|s| s.lat_ms).collect();
    let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let values = [
        stats::segment_median_rate(&segments),
        stats::percentile(&lat, 0.50),
        stats::percentile(&lat, 0.95),
        ok_share,
        stats::median(&setups),
        peak_rss_mb(),
        model.images_per_s,
        model.peak_gpu_mb,
    ];
    eprintln!(
        "  samples {}  p95 beyond {}  p99 {:.4} ms (beyond {})  segment_spread_share {:.4}  fail_share {:.6}  setups {:?}",
        lat.len(),
        stats::samples_beyond(lat.len(), 0.95),
        stats::percentile(&lat, 0.99),
        stats::samples_beyond(lat.len(), 0.99),
        stats::segment_spread(&segments),
        1.0 - ok_share,
        setups,
    );
    let sound = values.iter().all(|v| v.is_finite() && *v > 0.0);
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
        .collect();
    result_line(tally, sound, metrics)
}

/// Runs `name` traced and returns the per-layer result line; the spans go
/// to `trace_path` as a Chrome trace.
pub fn run_per_layer(
    build: &dyn Fn() -> Box<dyn Workload>,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Json {
    let mut workload = build();
    workload.warm_up();
    let rec = Recorder::new();

    // Alternate untraced and traced slices of the same loop: their
    // throughput ratio is what recording a span per op costs.
    let slice = seconds / 8.0;
    let mut rates = [Vec::new(), Vec::new()];
    let mut all = Vec::new();
    for i in 0..4 {
        let traced = i % 2 == 1;
        let samples = workload.run(slice, traced.then_some(&rec));
        let segment = segments(&samples, slice, 1)[0];
        rates[usize::from(traced)].push(segment.rate());
        all.push(segment);
    }
    let mut layers = Layers::default();
    workload.probe(&rec, &mut layers);
    let tally = workload.verify();
    drop(workload);

    let untraced = stats::median(&rates[0]);
    if untraced > 0.0 {
        layers.set(
            "bench.trace_overhead_share",
            1.0 - stats::median(&rates[1]) / untraced,
        );
    }
    layers.set("bench.segment_spread_share", stats::segment_spread(&all));
    let shares = layer_shares(&rec);
    layers.set(
        "bench.unattributed_share",
        shares.get("unattributed").copied().unwrap_or(0.0),
    );
    eprintln!("  shares of probed op time: {shares:.3?}");

    if let Err(e) = write_trace(&rec, trace_path) {
        eprintln!("  trace not written to {}: {e}", trace_path.display());
    }
    let sound = PER_LAYER.iter().all(|m| layers.value(m.name).is_finite());
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), metric(layers.value(m.name), m.unit)))
        .collect();
    result_line(tally, sound, metrics)
}

fn write_trace(rec: &Recorder, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, rec.chrome_trace().to_line())
}

/// Runs `op` in a closed loop on this thread until `ops` operations are
/// done or `deadline` passes. `op` performs one operation and returns its id
/// and its submit and reply instants; `start` is the instant completion
/// times are counted from (shared by the threads of one loop).
pub fn closed_loop(
    ops: u64,
    start: Instant,
    deadline: Option<Instant>,
    rec: Option<&Recorder>,
    mut op: impl FnMut() -> (u32, Instant, Instant),
) -> Vec<OpSample> {
    let mut samples = Vec::new();
    for _ in 0..ops {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (id, t0, t1) = op();
        if let Some(rec) = rec {
            rec.record(("bench", "op"), 0, id, t0, t1);
        }
        samples.push(OpSample {
            end_s: (t1 - start).as_secs_f64(),
            lat_ms: (t1 - t0).as_secs_f64() * 1e3,
        });
    }
    samples
}

/// Runs `drive` for every client on a thread of its own and pools the
/// samples.
pub fn drive_clients<C: Send>(
    clients: &mut [C],
    drive: impl Fn(&mut C) -> Vec<OpSample> + Sync,
) -> Vec<OpSample> {
    let drive = &drive;
    std::thread::scope(|scope| {
        let loops: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || drive(c)))
            .collect();
        loops
            .into_iter()
            .flat_map(|l| l.join().expect("a client's loop panicked"))
            .collect()
    })
}

/// The instant `seconds` after `start`.
pub fn deadline(start: Instant, seconds: f64) -> Instant {
    start + Duration::from_secs_f64(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_run_from_completion_to_completion() {
        let at = |end_s| OpSample { end_s, lat_ms: 1.0 };
        let samples = [at(0.5), at(0.9), at(1.5), at(4.9), at(5.02)];
        let segs = segments(&samples, 5.0, 5);
        assert_eq!(
            segs.iter().map(|s| s.ops).collect::<Vec<_>>(),
            [2, 1, 0, 0, 1]
        );
        let walls: Vec<f64> = segs.iter().map(|s| s.wall_s).collect();
        for (wall, expected) in walls.iter().zip([0.9, 0.6, 1.5, 1.0, 0.9]) {
            assert!((wall - expected).abs() < 1e-12, "{walls:?}");
        }
    }

    #[test]
    fn layer_values_are_per_probed_op_in_the_metric_unit() {
        let rec = Recorder::new();
        let mut layers = Layers::default();
        let parent = rec.record(("bench", PROBE_OP), 0, 1, Instant::now(), Instant::now());
        let (_, id) = layers.timed(&rec, "gs-render.cull_us", parent, 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert_eq!(id, 2);
        rec.record(
            ("gs-core", "gather_us"),
            2,
            1,
            Instant::now(),
            Instant::now(),
        );
        layers.ops = 2;
        layers.set("gs-optim.updated_share", 0.25);
        let shares = layer_shares(&rec);
        assert_eq!(
            shares.keys().copied().collect::<Vec<_>>(),
            ["gs-render", "unattributed"]
        );
        let cull = layers.value("gs-render.cull_us");
        assert!((1000.0..50_000.0).contains(&cull), "{cull}");
        assert_eq!(layers.value("gs-optim.updated_share"), 0.25);
        assert_eq!(layers.value("gs-optim.flush_ms"), 0.0);
        assert_eq!(rec.spans()[1].layer, "gs-render");
        assert_eq!(rec.spans()[1].name, "cull_us");
    }

    #[test]
    fn closed_loop_stops_at_the_op_count_or_the_deadline() {
        let start = Instant::now();
        let mut id = 0;
        let mut op = || {
            id += 1;
            (id, Instant::now(), Instant::now())
        };
        assert_eq!(closed_loop(3, start, None, None, &mut op).len(), 3);
        let timed = closed_loop(u64::MAX, start, Some(deadline(start, 0.02)), None, &mut op);
        assert!(timed.windows(2).all(|w| w[0].end_s <= w[1].end_s));
        assert!(timed.last().is_some_and(|s| s.end_s <= 0.03));

        let mut clients = [1u64, 2];
        let pooled = drive_clients(&mut clients, |c| {
            closed_loop(*c, start, None, None, || (0, start, start))
        });
        assert_eq!(pooled.len(), 3);
    }
}
