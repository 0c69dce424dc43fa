//! In-memory aggregation: [`MemoryRecorder`] and the
//! [`TelemetrySnapshot`] it produces.

use crate::json::JsonValue;
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Identifier of the snapshot JSON layout, emitted as the `schema`
/// field. Bump only with a matching update to `docs/METRICS.md` and
/// the pinned snapshot test.
pub const SCHEMA: &str = "autobraid.telemetry/v1";

/// Retained-sample cap per histogram; beyond this the reservoir
/// decimates (keeps every 2nd, then 4th, ... observation), so
/// percentiles stay exact up to the cap and approximate past it.
pub(crate) const SAMPLE_CAP: usize = 8192;

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total: Duration,
}

/// The reservoir-backed histogram shared by [`MemoryRecorder`]
/// (lifetime aggregates) and [`crate::WindowedRecorder`] (per-second
/// buckets) — crate-internal; consumers only ever see
/// [`HistogramSummary`].
#[derive(Default, Clone)]
pub(crate) struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
    /// Keep one observation out of every `2^shift`.
    shift: u32,
}

impl Histogram {
    pub(crate) fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        self.count += 1;
        if (self.count - 1).is_multiple_of(1u64 << self.shift) {
            self.samples.push(value);
            if self.samples.len() >= SAMPLE_CAP {
                let mut keep = 0;
                for i in (0..self.samples.len()).step_by(2) {
                    self.samples[keep] = self.samples[i];
                    keep += 1;
                }
                self.samples.truncate(keep);
                self.shift += 1;
            }
        }
    }

    /// Merges `other` into `self`, reservoir included: exact for
    /// count/sum/min/max, and the percentile reservoir becomes the
    /// concatenation of both sides' retained samples (re-decimated if
    /// the union exceeds the cap), so percentiles stay exact as long as
    /// both inputs were below the cap.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
        self.samples.extend_from_slice(&other.samples);
        self.shift = self.shift.max(other.shift);
        while self.samples.len() >= SAMPLE_CAP {
            let mut keep = 0;
            for i in (0..self.samples.len()).step_by(2) {
                self.samples[keep] = self.samples[i];
                keep += 1;
            }
            self.samples.truncate(keep);
            self.shift += 1;
        }
    }

    pub(crate) fn summary(&self) -> HistogramSummary {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A [`Recorder`] that aggregates everything in memory.
///
/// Spans aggregate by full path (count + total wall time), counters
/// sum, histograms keep exact count/sum/min/max plus a bounded sample
/// reservoir for percentiles. Call [`MemoryRecorder::snapshot`] at any
/// point to extract the current [`TelemetrySnapshot`].
pub struct MemoryRecorder {
    inner: Mutex<Inner>,
    /// Whether this recorder wants fine-grained (inner-loop) metrics.
    /// True for explicitly-requested recorders, false for the
    /// service's always-on ambient instance ([`MemoryRecorder::ambient`]).
    fine: bool,
}

impl Default for MemoryRecorder {
    fn default() -> MemoryRecorder {
        MemoryRecorder {
            inner: Mutex::default(),
            fine: true,
        }
    }
}

impl MemoryRecorder {
    /// Creates an empty recorder that collects the full profile,
    /// including fine-grained inner-loop metrics.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Creates an empty recorder for always-on ambient use: it declines
    /// fine-grained metrics (see [`crate::fine_metrics_enabled`]) so
    /// compile inner loops skip their profiling counters/observations
    /// entirely, keeping service observability inside its <2% overhead
    /// budget (enforced by `bench regress`, docs/PERF.md). Lifetime
    /// aggregates of spans and coarse metrics are still collected.
    pub fn ambient() -> MemoryRecorder {
        MemoryRecorder {
            fine: false,
            ..MemoryRecorder::new()
        }
    }

    /// Extracts an immutable aggregate of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().unwrap();
        TelemetrySnapshot {
            spans: inner
                .spans
                .iter()
                .map(|(path, agg)| SpanStat {
                    path: path.clone(),
                    count: agg.count,
                    total_seconds: agg.total.as_secs_f64(),
                })
                .collect(),
            counters: inner.counters.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn wants_fine_metrics(&self) -> bool {
        self.fine
    }

    fn record_span(&self, path: &str, wall: Duration) {
        let mut inner = self.inner.lock().unwrap();
        update(&mut inner.spans, path, |agg: &mut SpanAgg| {
            agg.count += 1;
            agg.total += wall;
        });
    }

    fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        update(&mut inner.counters, name, |sum| *sum += delta);
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        update(&mut inner.histograms, name, |h: &mut Histogram| {
            h.observe(value)
        });
    }
}

/// Applies `f` to the value under `key`, inserting a default first;
/// only that insert copies the key, so a known name allocates nothing.
pub(crate) fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(value) => f(value),
        None => f(map.entry(key.to_string()).or_default()),
    }
}

/// Aggregate of one span path across all its occurrences.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Slash-joined nesting path, e.g. `pipeline/schedule`.
    pub path: String,
    /// Number of completed occurrences.
    pub count: u64,
    /// Total wall-clock time across occurrences, in seconds.
    pub total_seconds: f64,
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median of the retained sample reservoir.
    pub p50: f64,
    /// 90th percentile of the retained sample reservoir.
    pub p90: f64,
    /// 99th percentile of the retained sample reservoir.
    pub p99: f64,
}

/// Point-in-time aggregate extracted from a [`MemoryRecorder`], or
/// from a [`crate::WindowedRecorder`] (which keeps no spans).
///
/// Serializes to the stable `autobraid.telemetry/v1` JSON layout via
/// [`TelemetrySnapshot::to_json`]; the schema is documented in
/// `docs/METRICS.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, sorted by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl TelemetrySnapshot {
    /// Value of the counter `name`, or 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary for `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Span aggregate whose path equals `path`, if it completed at
    /// least once.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Every distinct metric name in the snapshot: span paths, counter
    /// names, and histogram names, in that order.
    pub fn metric_names(&self) -> Vec<&str> {
        self.spans
            .iter()
            .map(|s| s.path.as_str())
            .chain(self.counters.keys().map(|k| k.as_str()))
            .chain(self.histograms.keys().map(|k| k.as_str()))
            .collect()
    }

    /// Builds the `autobraid.telemetry/v1` JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::object([
                    ("path", JsonValue::from(s.path.as_str())),
                    ("count", JsonValue::from(s.count)),
                    ("total_seconds", JsonValue::from(s.total_seconds)),
                ])
            })
            .collect::<Vec<_>>();
        JsonValue::object(
            [
                ("schema", JsonValue::from(SCHEMA)),
                ("spans", JsonValue::Array(spans)),
            ]
            .into_iter()
            .chain(self.metric_members()),
        )
    }

    /// The `counters` and `histograms` members, rendered alike in the
    /// `autobraid.telemetry/v1` tree and the `window` object of
    /// `autobraid.metrics/v1` ([`crate::WindowedRecorder::json_at`]).
    pub(crate) fn metric_members(&self) -> [(&'static str, JsonValue); 2] {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| (name.as_str(), JsonValue::from(value)));
        let histograms = self.histograms.iter().map(|(name, h)| {
            (
                name.as_str(),
                JsonValue::object([
                    ("count", JsonValue::from(h.count)),
                    ("sum", JsonValue::from(h.sum)),
                    ("min", JsonValue::from(h.min)),
                    ("max", JsonValue::from(h.max)),
                    ("mean", JsonValue::from(h.mean)),
                    ("p50", JsonValue::from(h.p50)),
                    ("p90", JsonValue::from(h.p90)),
                    ("p99", JsonValue::from(h.p99)),
                ]),
            )
        });
        [
            ("counters", JsonValue::object(counters)),
            ("histograms", JsonValue::object(histograms)),
        ]
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate() {
        let rec = MemoryRecorder::new();
        rec.add("a", 2);
        rec.add("b", 1);
        rec.add("a", 3);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histogram_percentiles_are_exact_below_the_cap() {
        let rec = MemoryRecorder::new();
        // 1..=100 shuffled-ish order (order must not matter).
        for v in (1..=100u64).rev() {
            rec.observe("h", v as f64);
        }
        let snap = rec.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!((h.p50 - 50.0).abs() <= 1.0);
        assert!((h.p90 - 90.0).abs() <= 1.0);
        assert!((h.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn histogram_reservoir_decimates_but_stays_exact_on_extremes() {
        let rec = MemoryRecorder::new();
        for v in 0..100_000u64 {
            rec.observe("big", v as f64);
        }
        let snap = rec.snapshot();
        let h = snap.histogram("big").unwrap();
        assert_eq!(h.count, 100_000);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 99_999.0);
        // Percentiles are approximate past the cap; 2% tolerance.
        assert!((h.p50 - 50_000.0).abs() < 2_000.0, "p50 = {}", h.p50);
        assert!((h.p90 - 90_000.0).abs() < 2_000.0, "p90 = {}", h.p90);
    }

    #[test]
    fn empty_histogram_summary_is_all_zero() {
        // A histogram with no observations must answer every query
        // with the documented zeros — never panic or divide by zero.
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p90, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_sample_histogram_returns_that_value_everywhere() {
        let rec = MemoryRecorder::new();
        rec.observe("one", 42.5);
        let snap = rec.snapshot();
        let h = snap.histogram("one").unwrap();
        assert_eq!(h.count, 1);
        for value in [h.sum, h.min, h.max, h.mean, h.p50, h.p90, h.p99] {
            assert_eq!(value, 42.5);
        }
    }

    #[test]
    fn reservoir_at_and_past_the_cap_never_panics() {
        // Exactly at the cap, one past it, and far past it: count stays
        // exact and every percentile query stays in range.
        for n in [
            SAMPLE_CAP as u64,
            SAMPLE_CAP as u64 + 1,
            SAMPLE_CAP as u64 * 3,
        ] {
            let mut h = Histogram::default();
            for v in 0..n {
                h.observe(v as f64);
            }
            let s = h.summary();
            assert_eq!(s.count, n);
            assert_eq!(s.min, 0.0);
            assert_eq!(s.max, (n - 1) as f64);
            for p in [s.p50, s.p90, s.p99] {
                assert!(
                    (0.0..=(n - 1) as f64).contains(&p),
                    "n={n}: {p} out of range"
                );
            }
            assert!(
                s.p50 <= s.p90 && s.p90 <= s.p99,
                "n={n}: percentiles unordered"
            );
        }
    }

    #[test]
    fn non_finite_observations_do_not_poison_percentiles() {
        // partial_cmp on NaN falls back to Equal in the sort — queries
        // must still return without panicking.
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(f64::NAN);
        h.observe(2.0);
        let s = h.summary();
        assert_eq!(s.count, 3);
        // min/max/mean involve NaN arithmetic, but percentile lookup
        // itself must not panic; p50 comes from the retained samples.
        let _ = (s.p50, s.p90, s.p99);
    }

    #[test]
    fn merge_combines_histogram_extremes_exactly() {
        let mut a = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            a.observe(v);
        }
        let mut b = Histogram::default();
        for v in [10.0, 20.0] {
            b.observe(v);
        }
        a.merge(&b);
        let h = a.summary();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 20.0);
        assert!((h.sum - 36.0).abs() < 1e-12);
        assert!((h.mean - 7.2).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut full = Histogram::default();
        full.observe(2.0);
        full.observe(5.0);
        let expected = full.summary();
        let mut left = full.clone();
        left.merge(&Histogram::default());
        assert_eq!(left.summary(), expected);
        let mut right = Histogram::default();
        right.merge(&full);
        assert_eq!(right.summary(), expected);
    }

    #[test]
    fn metric_names_with_quotes_backslashes_and_controls_roundtrip() {
        // Metric and span names are user-influenced (circuit labels
        // flow into span paths); the JSON writer must escape quotes,
        // backslashes, and control characters so the snapshot stays
        // parseable.
        let rec = MemoryRecorder::new();
        let hostile = "he said \"hi\"\\path\nnewline\ttab\u{1}ctl";
        rec.add(hostile, 3);
        rec.observe(hostile, 1.5);
        rec.record_span(hostile, Duration::from_millis(1));
        let rendered = rec.snapshot().to_json();
        let parsed = JsonValue::parse(&rendered).expect("escaped output parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get(hostile))
                .and_then(JsonValue::as_u64),
            Some(3),
            "counter name did not survive the escape/parse roundtrip"
        );
        assert!(parsed
            .get("histograms")
            .and_then(|h| h.get(hostile))
            .is_some());
    }

    #[test]
    fn histogram_merge_with_both_reservoirs_at_the_cap() {
        // Two histograms that each saturated the reservoir: the merge
        // must keep exact fields exact, re-decimate below the cap and
        // produce in-range, ordered percentiles.
        let n = SAMPLE_CAP as u64 * 2;
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..n {
            a.observe(v as f64);
            b.observe((v + n) as f64);
        }
        a.merge(&b);
        assert!(a.samples.len() < SAMPLE_CAP);
        let h = a.summary();
        assert_eq!(h.count, 2 * n);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, (2 * n - 1) as f64);
        let expected_sum = (0..2 * n).map(|v| v as f64).sum::<f64>();
        assert!((h.sum - expected_sum).abs() < 1e-6);
        assert!((h.mean - expected_sum / (2 * n) as f64).abs() < 1e-6);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99, "percentiles unordered");
        assert!((h.p50 - n as f64).abs() <= n as f64 / 64.0, "p50={}", h.p50);
    }

    #[test]
    fn percentiles_exact_at_cap_minus_one_approximate_at_cap() {
        // The documented boundary (docs/METRICS.md): with cap-1
        // observations nothing has been decimated and percentiles are
        // exact; the observation that fills the reservoir triggers the
        // first decimation, after which percentiles come from every 2nd
        // sample.
        let mut h = Histogram::default();
        for v in 0..(SAMPLE_CAP as u64 - 1) {
            h.observe(v as f64);
        }
        let exact = h.summary();
        let last = (SAMPLE_CAP - 2) as f64;
        assert_eq!(exact.p50, (last * 0.50).round());
        assert_eq!(exact.p90, (last * 0.90).round());
        assert_eq!(exact.p99, (last * 0.99).round());
        // One more observation reaches the cap: decimation halves the
        // reservoir, percentiles become approximate but stay within
        // one decimation stride of the truth.
        h.observe((SAMPLE_CAP - 1) as f64);
        let approx = h.summary();
        assert_eq!(approx.count, SAMPLE_CAP as u64);
        let last = (SAMPLE_CAP - 1) as f64;
        assert!(
            (approx.p50 - last * 0.50).abs() <= 2.0,
            "p50={}",
            approx.p50
        );
        assert!(
            (approx.p99 - last * 0.99).abs() <= 2.0,
            "p99={}",
            approx.p99
        );
    }

    #[test]
    fn histogram_merge_is_exact_below_the_cap() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..100u64 {
            a.observe(v as f64);
            b.observe((v + 100) as f64);
        }
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 200);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 199.0);
        // The merged reservoir holds every observation, so the median
        // is exact (sorted concatenation).
        assert!((s.p50 - 100.0).abs() <= 1.0, "p50={}", s.p50);
    }

    #[test]
    fn span_aggregation_sums_durations() {
        let rec = MemoryRecorder::new();
        rec.record_span("a/b", Duration::from_millis(2));
        rec.record_span("a/b", Duration::from_millis(3));
        rec.record_span("a", Duration::from_millis(7));
        let snap = rec.snapshot();
        let ab = snap.span("a/b").unwrap();
        assert_eq!(ab.count, 2);
        assert!((ab.total_seconds - 0.005).abs() < 1e-9);
        assert_eq!(snap.span("a").unwrap().count, 1);
        assert!(snap.span("zzz").is_none());
    }
}
