//! A lightweight metrics registry for the controller service.
//!
//! Three instrument families, all keyed by name: monotone **counters**,
//! last-value **gauges**, and summarizing **histograms** (count / sum /
//! min / max plus a fixed set of log-scaled buckets, so p50/p95/p99
//! estimates come without unbounded memory). The registry serializes with
//! the snapshot, so resumed runs continue their metrics exactly, and
//! exports as JSON or CSV for external consumption.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of log-scaled buckets each histogram keeps.
const NUM_BUCKETS: usize = 64;

/// Bucket `k` spans `[2^(k - BUCKET_OFFSET), 2^(k + 1 - BUCKET_OFFSET))`;
/// with 64 buckets and offset 31 the grid covers ~4.7e-10 .. 8.6e9, wide
/// enough for latencies in seconds and pivot counts alike. Values at or
/// below zero land in bucket 0, values past the top land in the last.
const BUCKET_OFFSET: i32 = 31;

fn bucket_of(value: f64) -> usize {
    if value <= 0.0 || value.is_nan() {
        return 0;
    }
    if value.is_infinite() {
        return NUM_BUCKETS - 1;
    }
    let k = value.log2().floor() as i32 + BUCKET_OFFSET;
    k.clamp(0, NUM_BUCKETS as i32 - 1) as usize
}

fn bucket_lo(k: usize) -> f64 {
    if k == 0 {
        0.0
    } else {
        ((k as i32 - BUCKET_OFFSET) as f64).exp2()
    }
}

fn bucket_hi(k: usize) -> f64 {
    ((k as i32 + 1 - BUCKET_OFFSET) as f64).exp2()
}

/// Summary statistics of an observed distribution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Log-scaled bucket counts (allocated on first observation; see
    /// [`HistogramSummary::percentile`]).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if self.buckets.len() != NUM_BUCKETS {
            self.buckets.resize(NUM_BUCKETS, 0);
        }
        self.buckets[bucket_of(value)] += 1;
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q ∈ [0, 1]`) from the log-scaled
    /// buckets, interpolating linearly inside the bucket holding the target
    /// rank and clamping into `[min, max]`. Exact for `q = 0` and `q = 1`;
    /// within one bucket width (a factor of 2) otherwise. Returns 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly; answer them directly rather
        // than from bucket interpolation (which would, e.g., report 0 for
        // `q = 0` of an all-negative distribution — bucket 0 spans
        // everything ≤ 0 and its lower edge is 0).
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                let lo = bucket_lo(k);
                let hi = bucket_hi(k);
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// The median estimate (see [`HistogramSummary::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Applies `apply` to the entry named `name` in `map`, created at its
/// default the first time the name is used. Only that first use allocates
/// the key: the runtime records dozens of instruments per slot under a
/// handful of names.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, apply: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => apply(value),
        None => apply(map.entry(name.to_string()).or_default()),
    }
}

/// Counters, gauges, and histograms for one runtime.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        update(&mut self.counters, name, |c| *c += by);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, |g| *g = value);
    }

    /// Records one observation in the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        update(&mut self.histograms, name, |h| h.observe(value));
    }

    /// The named counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram's summary, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Serializes the registry as pretty JSON for external consumption:
    /// histograms are exported with their derived statistics (mean and the
    /// p50/p95/p99 estimates) instead of raw buckets. Snapshots use the
    /// derived `Serialize` impl instead, which round-trips exactly.
    pub fn to_json(&self) -> String {
        let histograms: BTreeMap<String, HistogramExport> = self
            .histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramExport {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        mean: h.mean(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                    },
                )
            })
            .collect();
        let export = RegistryExport {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms,
        };
        serde::json::to_string_pretty(&export)
    }

    /// Serializes the registry as CSV with one row per instrument:
    /// `kind,name,count,sum,min,max,mean,p50,p95,p99` (counters and gauges
    /// use the `sum` column, the rest 0).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,count,sum,min,max,mean,p50,p95,p99\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},0,{v},0,0,0,0,0,0\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},0,{v},0,0,0,0,0,0\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{name},{},{},{},{},{},{},{},{}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        out
    }
}

/// The external-export shape of one histogram (see
/// [`MetricsRegistry::to_json`]).
#[derive(Debug, Clone, Serialize)]
struct HistogramExport {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// The external-export shape of the registry.
#[derive(Debug, Clone, Serialize)]
struct RegistryExport {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramExport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("slots", 1);
        m.inc("slots", 2);
        assert_eq!(m.counter("slots"), 3);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn a_zero_increment_still_creates_the_counter() {
        let mut m = MetricsRegistry::new();
        m.inc("quiet", 0);
        assert_eq!(m.counter("quiet"), 0);
        assert!(m.to_csv().contains("counter,quiet,0,0,"), "{}", m.to_csv());
    }

    /// One fixed sequence of updates, with names reused, first-used and
    /// zero-valued, in an order that differs from the export order.
    fn fixed_sequence() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("slots_total", 1);
        m.observe("queue_depth", 3.0);
        m.set_gauge("bill_per_slot", 12.5);
        m.inc("files_accepted", 0);
        m.inc("slots_total", 1);
        m.observe("queue_depth", 0.25);
        m.set_gauge("bill_per_slot", 0.1 + 0.2);
        m.inc("alap_admits", 7);
        m.observe("admission_latency_seconds", 0.0);
        m
    }

    /// [`MetricsRegistry::to_json`] of [`fixed_sequence`].
    const PINNED_JSON: &str = r#"{
  "counters": {
    "alap_admits": 7,
    "files_accepted": 0,
    "slots_total": 2
  },
  "gauges": {
    "bill_per_slot": 0.30000000000000004
  },
  "histograms": {
    "admission_latency_seconds": {
      "count": 1,
      "sum": 0.0,
      "min": 0.0,
      "max": 0.0,
      "mean": 0.0,
      "p50": 0.0,
      "p95": 0.0,
      "p99": 0.0
    },
    "queue_depth": {
      "count": 2,
      "sum": 3.25,
      "min": 0.25,
      "max": 3.0,
      "mean": 1.625,
      "p50": 0.5,
      "p95": 3.0,
      "p99": 3.0
    }
  }
}
"#;

    #[test]
    fn exports_of_a_fixed_sequence_are_pinned() {
        let m = fixed_sequence();
        assert_eq!(
            m.to_csv(),
            "kind,name,count,sum,min,max,mean,p50,p95,p99\n\
             counter,alap_admits,0,7,0,0,0,0,0,0\n\
             counter,files_accepted,0,0,0,0,0,0,0,0\n\
             counter,slots_total,0,2,0,0,0,0,0,0\n\
             gauge,bill_per_slot,0,0.30000000000000004,0,0,0,0,0,0\n\
             histogram,admission_latency_seconds,1,0,0,0,0,0,0,0\n\
             histogram,queue_depth,2,3.25,0.25,3,1.625,0.5,3,3\n"
        );
        assert_eq!(m.to_json(), PINNED_JSON);
    }

    #[test]
    fn gauges_keep_last_value() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("bill", 10.0);
        m.set_gauge("bill", 7.5);
        assert_eq!(m.gauge("bill"), Some(7.5));
        assert_eq!(m.gauge("never"), None);
    }

    #[test]
    fn histograms_summarize() {
        let mut m = MetricsRegistry::new();
        for v in [3.0, 1.0, 2.0] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_preserves_registry() {
        // Snapshots use the derived serde impls, which must round-trip
        // exactly (buckets included).
        let mut m = MetricsRegistry::new();
        m.inc("a", 5);
        m.set_gauge("g", 0.1 + 0.2);
        m.observe("h", 1.5);
        let json = serde::json::to_string_pretty(&m);
        let back: MetricsRegistry = serde::json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn json_export_carries_percentiles() {
        let mut m = MetricsRegistry::new();
        for v in 1..=100 {
            m.observe("lat", v as f64);
        }
        let json = m.to_json();
        for field in ["\"p50\"", "\"p95\"", "\"p99\"", "\"mean\""] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
        assert!(!json.contains("buckets"), "raw buckets must not leak: {json}");
    }

    #[test]
    fn csv_lists_every_instrument() {
        let mut m = MetricsRegistry::new();
        m.inc("c", 1);
        m.set_gauge("g", 2.0);
        m.observe("h", 3.0);
        let csv = m.to_csv();
        assert!(csv.starts_with("kind,name,count,sum,min,max,mean,p50,p95,p99\n"));
        assert!(csv.contains("counter,c,"));
        assert!(csv.contains("gauge,g,"));
        assert!(csv.contains("histogram,h,1,3,3,3,3,3,3,3"));
    }

    #[test]
    fn percentiles_track_known_distributions() {
        let mut h = HistogramSummary::default();
        // A single observation: every percentile is that value.
        h.observe(4.0);
        assert_eq!(h.p50(), 4.0);
        assert_eq!(h.p99(), 4.0);
        // Uniform 1..=1000: log-bucket estimates are within a factor of 2
        // of the true quantiles, and clamped to the observed range.
        let mut u = HistogramSummary::default();
        for v in 1..=1000 {
            u.observe(v as f64);
        }
        let p50 = u.p50();
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        let p99 = u.p99();
        assert!((495.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert!(u.p50() <= u.p95() && u.p95() <= u.p99());
        assert!(u.percentile(1.0) <= u.max);
        assert!(u.percentile(0.0) >= u.min);
    }

    #[test]
    fn percentiles_handle_zero_and_negative_values() {
        let mut h = HistogramSummary::default();
        for v in [-1.0, 0.0, 2.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert!(h.p50() >= h.min && h.p50() <= h.max);
        assert_eq!(h.percentile(0.0).max(h.min), h.percentile(0.0));
        // Empty histogram reports zeros.
        assert_eq!(HistogramSummary::default().p95(), 0.0);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = HistogramSummary::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 0.0);
        }
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_with_all_mass_in_bucket_zero() {
        // Values at or below zero all land in bucket 0, whose lower edge is
        // 0 — interpolation alone would report 0 for every quantile. The
        // exact min/max endpoints must win.
        let mut h = HistogramSummary::default();
        for v in [-4.0, -2.0, -1.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), -4.0);
        assert_eq!(h.percentile(1.0), -1.0);
        let p50 = h.p50();
        assert!((-4.0..=-1.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn percentile_q1_is_exactly_the_max() {
        let mut h = HistogramSummary::default();
        for v in [1.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
        // Out-of-range quantiles clamp to the endpoints.
        assert_eq!(h.percentile(2.5), 100.0);
        assert_eq!(h.percentile(-1.0), 1.0);
    }
}
