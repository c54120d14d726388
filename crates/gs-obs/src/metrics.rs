//! The metrics registry: counters, gauges, latency histograms, and
//! Prometheus text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-wrapped
//! atomics handed out at registration time, so the hot path touches no
//! lock and no map — it bumps an atomic it already holds. The registry's
//! mutex guards only registration and exposition.
//!
//! A [`Histogram`] is the one latency record of a serving tier. It counts
//! integer nanoseconds into [`HISTOGRAM_BUCKETS`] fixed buckets — one at or
//! below 100 ns, 360 per decade from 100 ns to 100 s (one every 2.5 % of the
//! decade's base), one overflow — and keeps the exact sum and max. Because
//! the edges are fixed, [`HistogramSnapshot`]s of different histograms,
//! threads or nodes merge exactly by addition, and a quantile read from one
//! is never below the exact interpolated percentile of the recorded sample
//! and at most 2.5 % above it (within 100 ns – 100 s).
//!
//! [`Registry::render`] emits the [Prometheus text exposition
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! (`# HELP`/`# TYPE` headers, cumulative `_bucket{le=...}` histogram
//! series over [`LATENCY_BUCKETS`], each an exact sum of fine buckets), and
//! [`lint_prometheus`] is the tiny validity checker CI runs against both
//! tiers' `GET /metrics` output.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The `le` bounds in seconds (upper-inclusive) of every histogram's
/// `/metrics` exposition, spaced for millisecond-scale render serving;
/// `+Inf` is implicit. Each bound is a fine-bucket edge.
pub const LATENCY_BUCKETS: [f64; 11] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Upper edge of the lowest bucket, in nanoseconds.
const FLOOR_NS: u64 = 100;
/// Decades between [`FLOOR_NS`] and the overflow bucket (100 ns – 100 s).
const DECADES: usize = 9;
/// Buckets per decade: one every `base / 40`, i.e. 2.5 % of its base.
const STEPS_PER_DECADE: usize = 360;

/// Number of fine buckets of every [`Histogram`]: one at or below 100 ns,
/// 360 per decade up to 100 s, and one overflow bucket above 100 s.
pub const HISTOGRAM_BUCKETS: usize = 1 + DECADES * STEPS_PER_DECADE + 1;

/// The fine bucket an observation of `ns` nanoseconds lands in (buckets
/// are upper-inclusive).
fn bucket_of(ns: u64) -> usize {
    if ns <= FLOOR_NS {
        return 0;
    }
    let mut base = FLOOR_NS;
    for decade in 0..DECADES {
        if ns <= 10 * base {
            let step = ((ns - base) * 40).div_ceil(base) as usize;
            return decade * STEPS_PER_DECADE + step;
        }
        base *= 10;
    }
    HISTOGRAM_BUCKETS - 1
}

/// The upper edge of fine bucket `i` in nanoseconds (`+inf` for the
/// overflow bucket). Exact: edges are multiples of 2.5 ns.
fn upper_edge_ns(i: usize) -> f64 {
    if i == HISTOGRAM_BUCKETS - 1 {
        return f64::INFINITY;
    }
    if i == 0 {
        return FLOOR_NS as f64;
    }
    let (decade, step) = ((i - 1) / STEPS_PER_DECADE, (i - 1) % STEPS_PER_DECADE + 1);
    let base = FLOOR_NS * 10u64.pow(decade as u32);
    (base * (40 + step as u64)) as f64 / 40.0
}

/// The fine bucket holding [`LATENCY_BUCKETS`]`[j]` as its upper edge.
fn le_bucket(j: usize) -> usize {
    bucket_of((LATENCY_BUCKETS[j] * 1e9).round() as u64)
}

/// Seconds to whole nanoseconds (negative and non-finite clamp to 0).
fn to_ns(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e9).round() as u64
    } else {
        0
    }
}

/// A monotonically increasing integer counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A float gauge (stored as `f64` bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// An exemplar: one concrete observation pinned to the bucket it landed
/// in, labelled with the trace that produced it (OpenMetrics-style `#
/// {trace_id="..."} value` suffix on the bucket line). A bad p99 bucket
/// thereby links straight to a stitched trace via `/trace?id=`.
#[derive(Debug, Clone)]
struct Exemplar {
    trace_id: String,
    value: f64,
}

#[derive(Debug)]
struct HistogramCore {
    /// Non-cumulative per-bucket counts ([`HISTOGRAM_BUCKETS`] entries);
    /// their sum is the observation count.
    buckets: Box<[AtomicU64]>,
    /// Sum of observations in nanoseconds.
    sum_ns: AtomicU64,
    /// Largest observation in nanoseconds.
    max_ns: AtomicU64,
    /// Latest exemplar per exposition bucket (`LATENCY_BUCKETS.len() + 1`
    /// entries); only the exemplar-carrying observe path takes this lock.
    exemplars: Mutex<Vec<Option<Exemplar>>>,
}

/// A latency histogram over fixed fine buckets (see the module docs):
/// recording is one bucket `fetch_add`, one sum `fetch_add` and one
/// `fetch_max`, with no lock.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation in seconds (negative values clamp to 0).
    pub fn observe(&self, secs: f64) {
        self.record_ns(to_ns(secs));
    }

    fn record_ns(&self, ns: u64) {
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one observation and pins it as the exemplar of the
    /// exposition bucket it landed in, labelled with `trace_id` (rendered
    /// as an OpenMetrics-style exemplar suffix on the matching `_bucket`
    /// line).
    pub fn observe_exemplar(&self, secs: f64, trace_id: &str) {
        let ns = to_ns(secs);
        self.record_ns(ns);
        // Each bound is a fine edge and buckets are upper-inclusive, so
        // comparing nanoseconds picks the same slot as the fine bucket.
        let slot = LATENCY_BUCKETS.partition_point(|&b| to_ns(b) < ns);
        self.0.exemplars.lock().unwrap()[slot] = Some(Exemplar {
            trace_id: trace_id.to_string(),
            value: ns as f64 / 1e9,
        });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations in seconds.
    pub fn sum(&self) -> f64 {
        self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// A plain copy of the counts, sum and max.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts: self.0.buckets.iter().map(load).collect(),
            sum_ns: load(&self.0.sum_ns),
            max_ns: load(&self.0.max_ns),
        }
    }
}

/// A plain copy of a [`Histogram`]: what `/stats` summarizes, what a
/// replica ships to a cluster coordinator, and what the coordinator
/// merges. Merging is addition, so it is exact and order-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, always [`HISTOGRAM_BUCKETS`] entries.
    counts: Vec<u64>,
    /// Sum of observations in nanoseconds.
    pub sum_ns: u64,
    /// Largest observation in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bucket counts, writable in place.
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Number of observations (saturating).
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |n, &c| n.saturating_add(c))
    }

    /// Adds `other` in (saturating, never wrapping).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(theirs);
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `p`-quantile (`p` in `[0, 1]`) in seconds, 0 when empty: linear
    /// interpolation between ranks, where the value at a rank is its
    /// bucket's upper edge clamped to the exact max. Never below the exact
    /// interpolated percentile of the recorded sample, and at most 2.5 %
    /// above it within 100 ns – 100 s.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (n - 1) as f64 * p;
        let (lo, hi) = (
            self.value_at(rank.floor() as u64),
            self.value_at(rank.ceil() as u64),
        );
        lo + (hi - lo) * (rank - rank.floor())
    }

    /// The value in seconds of the observation at 0-based `rank`.
    fn value_at(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen = seen.saturating_add(c);
                seen > rank
            })
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        upper_edge_ns(bucket).min(self.max_ns as f64) / 1e9
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Value(Arc<AtomicU64>, Kind),
    Hist(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the rendered label block (`""` or `{k="v",...}`).
    series: BTreeMap<String, Series>,
}

/// The process-wide metric registry of one serving tier.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(valid_name(k), "bad label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: Kind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        assert!(valid_name(name), "bad metric name {name:?}");
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} re-registered as {} (was {})",
            kind.as_str(),
            family.kind.as_str()
        );
        family
            .series
            .entry(label_block(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Registers (or fetches) a counter; repeated calls with the same name
    /// and labels return a handle to the same underlying value.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.series(name, labels, help, Kind::Counter, || {
            Series::Value(Arc::new(AtomicU64::new(0)), Kind::Counter)
        }) {
            Series::Value(v, _) => Counter(v),
            Series::Hist(_) => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.series(name, labels, help, Kind::Gauge, || {
            Series::Value(Arc::new(AtomicU64::new(0f64.to_bits())), Kind::Gauge)
        }) {
            Series::Value(v, _) => Gauge(v),
            Series::Hist(_) => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a latency histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.series(name, labels, help, Kind::Histogram, || {
            Series::Hist(Histogram(Arc::new(HistogramCore {
                buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
                exemplars: Mutex::new(vec![None; LATENCY_BUCKETS.len() + 1]),
            })))
        }) {
            Series::Hist(h) => h,
            Series::Value(..) => unreachable!("kind checked above"),
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::with_capacity(families.len() * 128);
        for (name, family) in families.iter() {
            out.push_str(&format!(
                "# HELP {name} {}\n",
                family.help.replace('\n', " ")
            ));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, series) in &family.series {
                match series {
                    Series::Value(v, Kind::Counter) => {
                        out.push_str(&format!("{name}{labels} {}\n", v.load(Ordering::Relaxed)));
                    }
                    Series::Value(v, _) => {
                        let f = f64::from_bits(v.load(Ordering::Relaxed));
                        out.push_str(&format!("{name}{labels} {}\n", fmt_value(f)));
                    }
                    Series::Hist(h) => {
                        // Cumulative buckets; `le` joins any other labels.
                        let inner = labels.trim_start_matches('{').trim_end_matches('}');
                        let with = |extra: &str| {
                            if inner.is_empty() {
                                format!("{{{extra}}}")
                            } else {
                                format!("{{{inner},{extra}}}")
                            }
                        };
                        let exemplars = h.0.exemplars.lock().unwrap().clone();
                        let suffix = |i: usize| match &exemplars[i] {
                            Some(ex) => format!(
                                " # {{trace_id=\"{}\"}} {}",
                                ex.trace_id,
                                fmt_value(ex.value)
                            ),
                            None => String::new(),
                        };
                        // One read per bucket: `+Inf` and `_count` are the
                        // same sum, and the cumulative series cannot dip.
                        let snap = h.snapshot();
                        let (mut cum, mut next) = (0u64, 0usize);
                        for (j, bound) in LATENCY_BUCKETS.iter().enumerate() {
                            let upto = le_bucket(j);
                            cum += snap.counts[next..=upto].iter().sum::<u64>();
                            next = upto + 1;
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}{}\n",
                                with(&format!("le=\"{}\"", fmt_value(*bound))),
                                suffix(j)
                            ));
                        }
                        cum += snap.counts[next..].iter().sum::<u64>();
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}{}\n",
                            with("le=\"+Inf\""),
                            suffix(LATENCY_BUCKETS.len())
                        ));
                        let sum = snap.sum_ns as f64 / 1e9;
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_value(sum)));
                        out.push_str(&format!("{name}_count{labels} {cum}\n"));
                    }
                }
            }
        }
        out
    }
}

/// Formats a float the exposition format accepts (finite, shortest
/// round-trip; non-finite degrades to 0).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Validates a Prometheus text exposition document; returns the number of
/// sample lines, or a message naming the first offending line.
///
/// Checks: comment/`HELP`/`TYPE` syntax with known types, metric-name and
/// label charset, parseable values, `TYPE` declared before its samples,
/// no duplicate series, histogram families exposing `_bucket` (with
/// `le`), `_sum` and `_count`, and per histogram label set, cumulative
/// buckets that never decrease and a `+Inf` bucket equal to `_count`.
///
/// # Errors
///
/// A human-readable message with the 1-based line number.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut samples = 0usize;
    // Per histogram label set (without `le`): the last bucket value, the
    // `+Inf` bucket and `_count`.
    let mut hist: BTreeMap<String, (f64, Option<f64>, Option<f64>)> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without a type"))?;
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown type {kind:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments.
        }
        // Sample line: name[{labels}] value [timestamp]
        let (series, value) =
            split_sample(line).ok_or(format!("line {lineno}: malformed sample line {line:?}"))?;
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let labels = if name_end < series.len() {
            label_pairs(&series[name_end..], lineno)?
        } else {
            Vec::new()
        };
        let value_token = value.split_whitespace().next().unwrap_or("");
        if !valid_value_token(value_token) {
            return Err(format!("line {lineno}: bad sample value {value_token:?}"));
        }
        // Whatever follows the value must be a timestamp, an
        // OpenMetrics-style exemplar (`# {labels} value [ts]`), or both.
        lint_sample_tail(value[value_token.len()..].trim_start(), lineno)?;
        // The family (histogram series fold into their base name) must be
        // TYPE-declared before samples.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!(
                "line {lineno}: sample for {name} before (or without) its TYPE"
            ));
        }
        if !seen.insert(series.to_string()) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
        if family != name && !name.ends_with("_sum") {
            let key: Vec<String> = labels
                .iter()
                .filter(|(k, _)| *k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = format!("{family}{{{}}}", key.join(","));
            let (last, inf, count) = hist.entry(key).or_insert((f64::MIN, None, None));
            let value = value_token.parse().unwrap_or(f64::NAN);
            if name.ends_with("_count") {
                *count = Some(value);
            } else if value < *last {
                return Err(format!(
                    "line {lineno}: cumulative buckets of {family} decrease"
                ));
            } else {
                *last = value;
                if labels.contains(&("le", "\"+Inf\"")) {
                    *inf = Some(value);
                }
            }
        }
        samples += 1;
    }
    for (key, (_, inf, count)) in &hist {
        if inf.is_some() && inf != count {
            return Err(format!(
                "histogram {key}: le=\"+Inf\" bucket {inf:?} differs from _count {count:?}"
            ));
        }
    }
    // Histogram families must be complete.
    for (name, kind) in &types {
        if kind == "histogram" {
            for suffix in ["_bucket", "_sum", "_count"] {
                let want = format!("{name}{suffix}");
                if !seen.iter().any(|s| {
                    s.strip_prefix(&want)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
                }) {
                    return Err(format!("histogram {name} is missing its {suffix} series"));
                }
            }
            let le = format!("{name}_bucket");
            if !seen
                .iter()
                .any(|s| s.starts_with(&le) && s.contains("le=\"+Inf\""))
            {
                return Err(format!(
                    "histogram {name} is missing the le=\"+Inf\" bucket"
                ));
            }
        }
    }
    Ok(samples)
}

/// Whether a token is a legal sample value: a finite float, or exactly
/// one of the canonical non-finite spellings (`NaN`, `+Inf`, `-Inf`) —
/// Rust's permissive `f64` parser would otherwise wave through `inf`,
/// `nan` and friends the exposition format forbids.
fn valid_value_token(token: &str) -> bool {
    matches!(token, "+Inf" | "-Inf" | "NaN")
        || token.parse::<f64>().map(|v| v.is_finite()).unwrap_or(false)
}

/// Validates what a sample line carries after its value: nothing, an
/// integer timestamp, an exemplar (`# {labels} value`), or a timestamp
/// followed by an exemplar.
fn lint_sample_tail(tail: &str, lineno: usize) -> Result<(), String> {
    let mut tail = tail;
    // Optional timestamp before any exemplar marker.
    if !tail.is_empty() && !tail.starts_with('#') {
        let ts = tail.split_whitespace().next().unwrap_or("");
        if ts.parse::<i64>().is_err() {
            return Err(format!("line {lineno}: bad sample timestamp {ts:?}"));
        }
        tail = tail[tail.find(ts).unwrap_or(0) + ts.len()..].trim_start();
    }
    if tail.is_empty() {
        return Ok(());
    }
    let ex = tail
        .strip_prefix('#')
        .ok_or(format!("line {lineno}: trailing junk after value {tail:?}"))?
        .trim_start();
    let block_len = label_block_len(ex).ok_or(format!(
        "line {lineno}: exemplar without a label set {ex:?}"
    ))?;
    label_pairs(&ex[..block_len], lineno)?;
    let mut rest = ex[block_len..].split_whitespace();
    let ex_value = rest
        .next()
        .ok_or(format!("line {lineno}: exemplar without a value"))?;
    if !valid_value_token(ex_value) {
        return Err(format!("line {lineno}: bad exemplar value {ex_value:?}"));
    }
    if let Some(ts) = rest.next() {
        if ts.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: bad exemplar timestamp {ts:?}"));
        }
    }
    if rest.next().is_some() {
        return Err(format!("line {lineno}: trailing junk after exemplar"));
    }
    Ok(())
}

/// The bytes of `s` outside quoted label values, with their offsets
/// (backslash escapes inside quotes honored; the quotes themselves are
/// skipped).
fn unquoted(s: &str) -> impl Iterator<Item = (usize, u8)> + '_ {
    let (mut in_quotes, mut escaped) = (false, false);
    s.bytes().enumerate().filter(move |&(_, b)| {
        let outside = !in_quotes && b != b'"';
        if escaped {
            escaped = false;
        } else if b == b'\\' && in_quotes {
            escaped = true;
        } else if b == b'"' {
            in_quotes = !in_quotes;
        }
        outside
    })
}

/// The byte length of a `{...}` label block at the start of `s`,
/// honoring quoted values; `None` when `s` doesn't start with one.
fn label_block_len(s: &str) -> Option<usize> {
    if !s.starts_with('{') {
        return None;
    }
    unquoted(s).find(|&(_, b)| b == b'}').map(|(i, _)| i + 1)
}

/// Splits a sample line into (series, value-and-rest), honoring quoted
/// label values that may contain spaces or `}`.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let mut brace_depth = 0u32;
    for (i, b) in unquoted(line) {
        match b {
            b'{' => brace_depth += 1,
            b'}' => brace_depth = brace_depth.checked_sub(1)?,
            b' ' | b'\t' if brace_depth == 0 => {
                let value = line[i..].trim();
                return (!value.is_empty()).then_some((&line[..i], value));
            }
            _ => {}
        }
    }
    None
}

/// Validates a `{k="v",...}` label block and returns its `(name, quoted
/// value)` pairs.
fn label_pairs(block: &str, lineno: usize) -> Result<Vec<(&str, &str)>, String> {
    let inner = block
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or(format!("line {lineno}: unbalanced label braces {block:?}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    // Split on commas outside quotes.
    let mut start = 0;
    let mut pairs: Vec<&str> = unquoted(inner)
        .filter(|&(_, b)| b == b',')
        .map(|(i, _)| &inner[std::mem::replace(&mut start, i + 1)..i])
        .collect();
    pairs.push(&inner[start..]);
    pairs
        .into_iter()
        .map(|pair| {
            let (k, v) = pair
                .split_once('=')
                .ok_or(format!("line {lineno}: label without '=' in {pair:?}"))?;
            if !valid_name(k) {
                return Err(format!("line {lineno}: bad label name {k:?}"));
            }
            if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                return Err(format!("line {lineno}: unquoted label value {v:?}"));
            }
            Ok((k, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_registration() {
        let reg = Registry::new();
        let a = reg.counter("gs_requests_total", &[], "requests");
        let b = reg.counter("gs_requests_total", &[], "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("gs_depth", &[("tier", "serve")], "queue depth");
        g.set(2.5);
        assert_eq!(
            reg.gauge("gs_depth", &[("tier", "serve")], "queue depth")
                .get(),
            2.5
        );
        // Distinct labels are distinct series.
        let g2 = reg.gauge("gs_depth", &[("tier", "cluster")], "queue depth");
        g2.set(7.0);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.counter("gs_x", &[], "x");
        let _ = reg.gauge("gs_x", &[], "x");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_tracks() {
        let reg = Registry::new();
        let h = reg.histogram("gs_lat_seconds", &[], "latency");
        for v in [0.005, 0.05, 0.05, 0.5, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5.605).abs() < 1e-6);
        let text = reg.render();
        assert!(text.contains("gs_lat_seconds_bucket{le=\"0.01\"} 1"));
        assert!(text.contains("gs_lat_seconds_bucket{le=\"0.1\"} 3"));
        assert!(text.contains("gs_lat_seconds_bucket{le=\"1\"} 4"));
        assert!(text.contains("gs_lat_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("gs_lat_seconds_count 5"));
    }

    #[test]
    fn render_passes_the_linter() {
        let reg = Registry::new();
        reg.counter("gs_requests_total", &[("outcome", "completed")], "req")
            .add(4);
        reg.counter("gs_requests_total", &[("outcome", "error")], "req")
            .inc();
        reg.gauge("gs_kernel_gflops", &[("phase", "raster")], "achieved")
            .set(1.25);
        let h = reg.histogram("gs_request_seconds", &[], "latency");
        h.observe(0.003);
        let text = reg.render();
        let samples = lint_prometheus(&text).unwrap();
        // 2 counters + 1 gauge + 12 buckets + sum + count.
        assert_eq!(samples, 2 + 1 + LATENCY_BUCKETS.len() + 1 + 2);
        assert!(text.contains("# TYPE gs_requests_total counter"));
        assert!(text.contains("gs_requests_total{outcome=\"completed\"} 4"));
    }

    #[test]
    fn linter_rejects_malformed_documents() {
        for (doc, why) in [
            ("gs_x 1\n", "sample before TYPE"),
            ("# TYPE gs_x wombat\ngs_x 1\n", "unknown type"),
            ("# TYPE gs_x counter\ngs_x notanumber\n", "bad value"),
            ("# TYPE gs_x counter\ngs_x 1\ngs_x 2\n", "duplicate series"),
            ("# TYPE 9bad counter\n9bad 1\n", "bad name"),
            ("# TYPE gs_x counter\ngs_x{le=0.1} 1\n", "unquoted label"),
            (
                "# TYPE gs_x counter\ngs_x{le=\"a\" 1\n",
                "unbalanced braces",
            ),
            (
                "# TYPE gs_h histogram\ngs_h_bucket{le=\"+Inf\"} 1\ngs_h_sum 1\n",
                "missing _count",
            ),
            (
                "# TYPE gs_h histogram\ngs_h_bucket{le=\"1\"} 1\ngs_h_sum 1\ngs_h_count 1\n",
                "missing +Inf bucket",
            ),
        ] {
            assert!(lint_prometheus(doc).is_err(), "must reject: {why}");
        }
        // A correct document with labels containing spaces and escapes.
        let ok = "# HELP gs_x help text\n# TYPE gs_x gauge\n\
                  gs_x{node=\"replica 0 \\\"east\\\"\"} 1.5\n";
        assert_eq!(lint_prometheus(ok).unwrap(), 1);
        assert_eq!(lint_prometheus("").unwrap(), 0);
    }

    #[test]
    fn linter_handles_escaped_label_values() {
        // Backslash escapes, embedded braces and commas inside quotes.
        let ok = "# TYPE gs_x gauge\n\
                  gs_x{a=\"b\\\\c\",path=\"{x,y}\",nl=\"line\\nbreak\"} 1\n";
        assert_eq!(lint_prometheus(ok).unwrap(), 1);
        // An escape that swallows the closing quote is malformed.
        let bad = "# TYPE gs_x gauge\ngs_x{a=\"b\\\"} 1\n";
        assert!(lint_prometheus(bad).is_err());
        // Identical label sets differing only in escapes are duplicates.
        let dup = "# TYPE gs_x gauge\n\
                   gs_x{a=\"q\\\"q\"} 1\ngs_x{a=\"q\\\"q\"} 2\n";
        let err = lint_prometheus(dup).unwrap_err();
        assert!(err.contains("duplicate series"), "{err}");
    }

    #[test]
    fn linter_accepts_spec_nonfinite_literals_and_render_never_emits_them() {
        // The exposition format itself allows NaN/±Inf sample values...
        let doc = "# TYPE gs_x gauge\ngs_x{v=\"a\"} NaN\n\
                   gs_x{v=\"b\"} +Inf\ngs_x{v=\"c\"} -Inf\n";
        assert_eq!(lint_prometheus(doc).unwrap(), 3);
        // ...but lowercase/bare variants are rejected.
        for bad in ["inf", "nan", "Inf", "+inf"] {
            let doc = format!("# TYPE gs_x gauge\ngs_x {bad}\n");
            assert!(lint_prometheus(&doc).is_err(), "must reject {bad}");
        }
        // Our own render degrades non-finite gauge values to 0 instead.
        let reg = Registry::new();
        reg.gauge("gs_bad", &[], "g").set(f64::NAN);
        reg.gauge("gs_worse", &[], "g").set(f64::INFINITY);
        let text = reg.render();
        assert!(text.contains("gs_bad 0\n"));
        assert!(text.contains("gs_worse 0\n"));
        lint_prometheus(&text).unwrap();
    }

    #[test]
    fn linter_rejects_duplicate_series_across_histogram_suffixes() {
        let doc = "# TYPE gs_h histogram\n\
                   gs_h_bucket{le=\"1\"} 1\ngs_h_bucket{le=\"1\"} 2\n";
        let err = lint_prometheus(doc).unwrap_err();
        assert!(err.contains("duplicate series"), "{err}");
    }

    #[test]
    fn exemplars_render_on_the_landed_bucket_and_lint_clean() {
        let reg = Registry::new();
        let h = reg.histogram("gs_request_seconds", &[], "latency");
        h.observe(0.005);
        h.observe_exemplar(0.05, "00f1e2d3c4b5a697");
        h.observe_exemplar(5.0, "ffffffffffffffff");
        let text = reg.render();
        assert!(text.contains(
            "gs_request_seconds_bucket{le=\"0.05\"} 2 # {trace_id=\"00f1e2d3c4b5a697\"} 0.05"
        ));
        assert!(text.contains(
            "gs_request_seconds_bucket{le=\"+Inf\"} 3 # {trace_id=\"ffffffffffffffff\"} 5"
        ));
        // The bucket nothing exemplar-landed in has no suffix.
        assert!(text.contains("gs_request_seconds_bucket{le=\"0.01\"} 1\n"));
        assert_eq!(h.count(), 3);
        lint_prometheus(&text).unwrap();
    }

    #[test]
    fn linter_validates_timestamps_and_exemplar_syntax() {
        for ok in [
            "# TYPE gs_x counter\ngs_x 5 1700000000000\n",
            "# TYPE gs_x counter\ngs_x 5 # {trace_id=\"ab\"} 0.4\n",
            "# TYPE gs_x counter\ngs_x 5 # {trace_id=\"ab\"} 0.4 1700000000.5\n",
            "# TYPE gs_x counter\ngs_x 5 -7 # {trace_id=\"a b\"} 1\n",
        ] {
            assert_eq!(lint_prometheus(ok).unwrap(), 1, "must accept {ok:?}");
        }
        for (bad, why) in [
            ("# TYPE gs_x counter\ngs_x 5 bogus\n", "junk timestamp"),
            (
                "# TYPE gs_x counter\ngs_x 5 # junk\n",
                "exemplar sans labels",
            ),
            (
                "# TYPE gs_x counter\ngs_x 5 # {trace_id=\"a\"}\n",
                "exemplar sans value",
            ),
            (
                "# TYPE gs_x counter\ngs_x 5 # {trace_id=a} 1\n",
                "unquoted exemplar label",
            ),
            (
                "# TYPE gs_x counter\ngs_x 5 # {t=\"a\"} 1 2 3\n",
                "trailing junk",
            ),
        ] {
            assert!(lint_prometheus(bad).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn concurrent_mutation_during_render_is_safe_and_lint_clean() {
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let tname = format!("w{t}");
                let c = reg.counter("gs_requests_total", &[("w", &tname)], "req");
                let h = reg.histogram("gs_request_seconds", &[], "lat");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    h.observe_exemplar((i % 100) as f64 / 100.0, "cafecafecafecafe");
                    // New series appear mid-render too.
                    if i.is_multiple_of(64) {
                        let g = format!("g{}", i % 256);
                        reg.gauge("gs_depth", &[("w", &tname), ("k", &g)], "d")
                            .set(i as f64);
                    }
                    i += 1;
                }
            }));
        }
        // Render (and lint) repeatedly while the writers churn.
        for _ in 0..50 {
            let text = reg.render();
            lint_prometheus(&text).unwrap_or_else(|e| panic!("lint failed: {e}\n{text}"));
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let text = reg.render();
        assert!(lint_prometheus(&text).unwrap() > 10);
    }

    #[test]
    fn fine_edges_cover_the_exposition_bounds_and_whole_milliseconds() {
        assert_eq!(HISTOGRAM_BUCKETS, 3242);
        let is_edge = |ns: u64| upper_edge_ns(bucket_of(ns)) == ns as f64;
        for bound in LATENCY_BUCKETS {
            assert!(is_edge((bound * 1e9).round() as u64), "{bound}");
        }
        for ms in 1..=100u64 {
            assert!(is_edge(ms * 1_000_000), "{ms} ms");
        }
        // Upper-inclusive: an edge lands in its own bucket, one past it in
        // the next, and the edges strictly increase.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let edge = upper_edge_ns(i);
            assert_eq!(bucket_of(edge.floor() as u64), i, "bucket {i}");
            assert_eq!(bucket_of(edge.floor() as u64 + 1), i + 1, "bucket {i}");
            assert!(i == 0 || upper_edge_ns(i - 1) < edge);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(100_000_000_001), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn every_edge_is_within_two_and_a_half_percent_of_what_it_holds() {
        let mut rng = gs_core::rng::Rng64::seed_from_u64(0xed9e);
        for _ in 0..100_000 {
            let ns = (100.0 * 10f64.powf(9.0 * rng.gen_f64())).round() as u64;
            let edge = upper_edge_ns(bucket_of(ns));
            assert!(
                ns as f64 <= edge && edge <= 1.025 * ns as f64,
                "{ns} ns -> edge {edge}"
            );
        }
    }

    #[test]
    fn snapshots_merge_exactly_and_saturate() {
        let reg = Registry::new();
        let (a, b, both) = (
            reg.histogram("gs_a_seconds", &[], "a"),
            reg.histogram("gs_b_seconds", &[], "b"),
            reg.histogram("gs_ab_seconds", &[], "ab"),
        );
        for i in 0..1000u32 {
            let secs = f64::from(i) * 1.7e-4;
            if i % 3 == 0 { &a } else { &b }.observe(secs);
            both.observe(secs);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.count(), 1000);
        assert_eq!(merged.max_ns, (999.0 * 1.7e-4 * 1e9f64).round() as u64);

        let mut full = HistogramSnapshot {
            sum_ns: u64::MAX - 1,
            max_ns: 7,
            ..HistogramSnapshot::default()
        };
        full.counts[5] = u64::MAX;
        full.counts[6] = 2;
        let mut one = HistogramSnapshot {
            sum_ns: 9,
            max_ns: 3,
            ..HistogramSnapshot::default()
        };
        one.counts_mut().fill(3);
        full.merge(&one);
        assert_eq!(full.counts[5], u64::MAX, "a count saturates");
        assert_eq!(full.counts[6], 5);
        assert_eq!(full.sum_ns, u64::MAX, "the sum saturates");
        assert_eq!(full.max_ns, 7);
        assert_eq!(full.count(), u64::MAX);
        assert!(full.quantile(0.99).is_finite());
    }

    #[test]
    fn empty_snapshots_read_as_zero() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn linter_rejects_inconsistent_histogram_series() {
        let head = "# TYPE gs_h histogram\n";
        let ok = format!(
            "{head}gs_h_bucket{{k=\"a\",le=\"1\"}} 1\ngs_h_bucket{{k=\"a\",le=\"+Inf\"}} 2\n\
             gs_h_sum{{k=\"a\"}} 3\ngs_h_count{{k=\"a\"}} 2\n"
        );
        assert_eq!(lint_prometheus(&ok).unwrap(), 4);
        let dips = format!(
            "{head}gs_h_bucket{{le=\"1\"}} 3\ngs_h_bucket{{le=\"+Inf\"}} 2\n\
             gs_h_sum 3\ngs_h_count 2\n"
        );
        let err = lint_prometheus(&dips).unwrap_err();
        assert!(err.contains("decrease"), "{err}");
        let short = format!(
            "{head}gs_h_bucket{{le=\"1\"}} 1\ngs_h_bucket{{le=\"+Inf\"}} 2\n\
             gs_h_sum 3\ngs_h_count 3\n"
        );
        let err = lint_prometheus(&short).unwrap_err();
        assert!(err.contains("differs from _count"), "{err}");
    }

    #[test]
    fn concurrent_observations_never_break_histogram_consistency() {
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let h = reg.histogram("gs_request_seconds", &[], "lat");
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let secs = (i % 4000) as f64 * 1e-3;
                        if i.is_multiple_of(2) {
                            h.observe(secs);
                        } else {
                            h.observe_exemplar(secs, "cafecafecafecafe");
                        }
                        i += 4;
                    }
                })
            })
            .collect();
        for _ in 0..1000 {
            let text = reg.render();
            lint_prometheus(&text).unwrap_or_else(|e| panic!("lint failed: {e}\n{text}"));
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(reg.histogram("gs_request_seconds", &[], "lat").count() > 0);
    }
}
