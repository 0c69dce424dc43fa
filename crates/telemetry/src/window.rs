//! Rolling time-window aggregation: [`WindowedRecorder`], the source
//! of the `window` object in `autobraid.metrics/v1`.
//!
//! Lifetime aggregates ([`crate::MemoryRecorder`]) answer "what has
//! this process done since it started"; a live daemon also needs
//! "what is happening *right now*". The windowed recorder keeps a ring
//! of per-second buckets — counters and reservoir histograms, the same
//! [`Histogram`](crate::memory) machinery as the lifetime path, so
//! percentiles are exact up to the reservoir cap — and snapshots the
//! trailing window (default 60 s) on demand. Stale buckets are
//! recycled lazily on the next write or snapshot that lands on them,
//! so an idle daemon pays nothing.

use crate::json::JsonValue;
use crate::memory::{update, Histogram, TelemetrySnapshot};
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of the windowed-snapshot JSON layout, emitted as the
/// `schema` field of the service `metrics` response. Bump only with a
/// matching update to `docs/METRICS.md`.
pub const METRICS_SCHEMA: &str = "autobraid.metrics/v1";

/// Default trailing-window length, in seconds.
pub const DEFAULT_WINDOW_SECONDS: u64 = 60;

#[derive(Default)]
struct Bucket {
    /// Absolute second (since the recorder's epoch) this bucket holds
    /// data for; a write to a different second resets it first.
    sec: u64,
    touched: bool,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A [`Recorder`] that aggregates counters and histograms into a ring
/// of one-second buckets.
///
/// An [`crate::AmbientStack`] installs it alongside the lifetime
/// [`crate::MemoryRecorder`]; both see the same `add`/`observe`
/// stream, one keeps forever, this one keeps the trailing window.
/// Spans and decisions are declined — windowed span aggregation would
/// duplicate what the lifetime recorder already answers.
pub struct WindowedRecorder {
    epoch: Instant,
    window: u64,
    buckets: Mutex<Vec<Bucket>>,
}

impl Default for WindowedRecorder {
    fn default() -> WindowedRecorder {
        WindowedRecorder::new()
    }
}

impl WindowedRecorder {
    /// Creates a recorder with the default window
    /// ([`DEFAULT_WINDOW_SECONDS`] one-second buckets).
    pub fn new() -> WindowedRecorder {
        WindowedRecorder::with_window(DEFAULT_WINDOW_SECONDS)
    }

    /// Creates a recorder keeping `window_seconds` one-second buckets
    /// (minimum 1).
    pub fn with_window(window_seconds: u64) -> WindowedRecorder {
        let window = window_seconds.max(1);
        let mut buckets = Vec::with_capacity(window as usize);
        buckets.resize_with(window as usize, Bucket::default);
        WindowedRecorder {
            epoch: Instant::now(),
            window,
            buckets: Mutex::new(buckets),
        }
    }

    /// The window length, in seconds.
    pub fn window_seconds(&self) -> u64 {
        self.window
    }

    /// Seconds elapsed since the recorder was created (the clock that
    /// drives bucket assignment).
    pub fn now_sec(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Adds `delta` to counter `name` in the bucket for absolute
    /// second `sec`. The [`Recorder`] impl calls this with the current
    /// second; tests drive it directly to step time deterministically.
    pub fn add_at(&self, name: &str, delta: u64, sec: u64) {
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = Self::bucket_for(&mut buckets, self.window, sec);
        update(&mut bucket.counters, name, |sum| *sum += delta);
    }

    /// Records one observation of `value` under histogram `name` in
    /// the bucket for absolute second `sec`.
    pub fn observe_at(&self, name: &str, value: f64, sec: u64) {
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = Self::bucket_for(&mut buckets, self.window, sec);
        update(&mut bucket.histograms, name, |h: &mut Histogram| {
            h.observe(value)
        });
    }

    fn bucket_for(buckets: &mut [Bucket], window: u64, sec: u64) -> &mut Bucket {
        let idx = (sec % window) as usize;
        let bucket = &mut buckets[idx];
        if !bucket.touched || bucket.sec != sec {
            bucket.sec = sec;
            bucket.touched = true;
            bucket.counters.clear();
            bucket.histograms.clear();
        }
        bucket
    }

    /// Snapshots the trailing window as of now (no spans).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_at(self.now_sec())
    }

    /// Snapshots the trailing window as of absolute second `now_sec`:
    /// buckets with `now_sec - sec < window` contribute; everything
    /// older is ignored (it will be recycled by the next write).
    pub fn snapshot_at(&self, now_sec: u64) -> TelemetrySnapshot {
        let buckets = self.buckets.lock().unwrap();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for bucket in buckets.iter() {
            if !bucket.touched || now_sec.saturating_sub(bucket.sec) >= self.window {
                continue;
            }
            for (name, &value) in &bucket.counters {
                *counters.entry(name.clone()).or_insert(0) += value;
            }
            for (name, h) in &bucket.histograms {
                histograms.entry(name.clone()).or_default().merge(h);
            }
        }
        TelemetrySnapshot {
            spans: Vec::new(),
            counters,
            histograms: histograms
                .into_iter()
                .map(|(name, h)| (name, h.summary()))
                .collect(),
        }
    }

    /// The `window` object of the `autobraid.metrics/v1` frame as of
    /// absolute second `now_sec` (the service passes [`Self::now_sec`]
    /// and wraps it with schema/version/uptime/gauges; see
    /// `docs/METRICS.md`).
    pub fn json_at(&self, now_sec: u64) -> JsonValue {
        let window = ("window_seconds", JsonValue::from(self.window));
        JsonValue::object(std::iter::once(window).chain(self.snapshot_at(now_sec).metric_members()))
    }
}

impl Recorder for WindowedRecorder {
    fn record_span(&self, _path: &str, _wall: Duration) {}

    // Always-on: the rolling window tracks service-level counters and
    // latencies, not inner-loop profiling detail.
    fn wants_fine_metrics(&self) -> bool {
        false
    }

    fn add(&self, name: &str, delta: u64) {
        self.add_at(name, delta, self.now_sec());
    }

    fn observe(&self, name: &str, value: f64) {
        self.observe_at(name, value, self.now_sec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sums_only_recent_buckets() {
        let rec = WindowedRecorder::with_window(3);
        rec.add_at("requests", 1, 0);
        rec.add_at("requests", 2, 1);
        rec.add_at("requests", 4, 2);
        assert_eq!(rec.snapshot_at(2).counter("requests"), 7);
        // At second 3 the bucket for second 0 has aged out.
        assert_eq!(rec.snapshot_at(3).counter("requests"), 6);
        // At second 5 only second-2 data would remain, but 5-2 >= 3.
        assert_eq!(rec.snapshot_at(5).counter("requests"), 0);
    }

    #[test]
    fn bucket_reuse_resets_stale_data() {
        let rec = WindowedRecorder::with_window(2);
        rec.add_at("c", 10, 0);
        // Second 2 maps onto the same ring slot as second 0.
        rec.add_at("c", 1, 2);
        assert_eq!(rec.snapshot_at(2).counter("c"), 1);
    }

    #[test]
    fn histograms_merge_across_buckets_exactly() {
        let rec = WindowedRecorder::with_window(10);
        for sec in 0..5u64 {
            for v in 0..20u64 {
                rec.observe_at("lat", (sec * 20 + v) as f64, sec);
            }
        }
        let snap = rec.snapshot_at(4);
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 99.0);
        assert!((h.p50 - 50.0).abs() <= 1.0, "p50={}", h.p50);
        assert!((h.p99 - 99.0).abs() <= 1.0, "p99={}", h.p99);
    }

    #[test]
    fn old_observations_age_out_of_percentiles() {
        let rec = WindowedRecorder::with_window(2);
        rec.observe_at("lat", 1000.0, 0);
        rec.observe_at("lat", 1.0, 2);
        let snap = rec.snapshot_at(2);
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 1.0);
    }

    /// Pins the bytes of the metrics/v1 `window` object: field order,
    /// number formatting and name order. A change here is a change to
    /// the wire layout scrapers parse, so it needs a schema bump.
    #[test]
    fn json_layout_has_window_counters_histograms() {
        let rec = WindowedRecorder::with_window(60);
        rec.add_at("service.requests.compile", 2, 0);
        rec.add_at("service.requests.ping", 1, 1);
        rec.add_at("service.cache.source_memo_hit", 3, 2);
        rec.observe_at("service.latency_ms", 4.0, 0);
        rec.observe_at("service.latency_ms", 1.5, 1);
        rec.observe_at("service.latency_ms", 2.25, 2);
        rec.observe_at("a.histogram", 0.1, 2);
        let expected = concat!(
            r#"{"window_seconds":60,"counters":{"service.cache.source_memo_hit":3,"#,
            r#""service.requests.compile":2,"service.requests.ping":1},"histograms":{"#,
            r#""a.histogram":{"count":1,"sum":0.1,"min":0.1,"max":0.1,"mean":0.1,"#,
            r#""p50":0.1,"p90":0.1,"p99":0.1},"service.latency_ms":{"count":3,"#,
            r#""sum":7.75,"min":1.5,"max":4,"mean":2.5833333333333335,"p50":2.25,"#,
            r#""p90":4,"p99":4}}}"#,
        );
        assert_eq!(rec.json_at(2).render_compact(), expected);
    }

    #[test]
    fn recorder_impl_lands_in_the_current_second() {
        let rec = WindowedRecorder::new();
        rec.add("c", 3);
        rec.observe("h", 1.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), 3);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }
}
