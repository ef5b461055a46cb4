//! Named metrics: counters, gauges, and log-bucketed histograms.
//!
//! The registry hands out `Arc` handles keyed by static names. An update
//! *through a handle* is a single relaxed atomic op; a lookup
//! ([`MetricsRegistry::counter`] and friends) takes that kind's map lock
//! and clones the `Arc`, so a hot path resolves its handles once and keeps
//! them (the service does, in its observability hub's constructor).
//! [`MetricsRegistry::snapshot`] freezes everything into a plain-data
//! [`MetricsSnapshot`] with a hand-rolled JSON rendering (the workspace is
//! dependency-free).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LogHistogram;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, backlog, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `dv` (may be negative).
    pub fn add(&self, dv: i64) {
        self.0.fetch_add(dv, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is currently lower (peak tracking).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Registry of named metric handles.
///
/// `counter` / `gauge` / `histogram` get-or-create, so independent layers
/// referring to the same name share one metric.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<LogHistogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("metrics registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .expect("metrics registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<LogHistogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("metrics registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Freezes every registered metric into plain data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&name, c)| (name.to_string(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&name, g)| (name.to_string(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&name, h)| (name.to_string(), HistogramSummary::of(h)))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Percentile summary of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (log-bucket nearest-rank, see [`LogHistogram::quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSummary {
    /// Summarises a histogram's current state.
    pub fn of(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            sum: h.sum(),
        }
    }
}

/// Plain-data snapshot of a [`MetricsRegistry`], sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Summary of the named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Hand-rolled JSON rendering; `indent` spaces prefix every line (so
    /// the object can be embedded in a larger document).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("{pad}  \"counters\": {{"));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n{pad}    \"{name}\": {v}"));
        }
        out.push_str(&format!("\n{pad}  }},\n"));
        out.push_str(&format!("{pad}  \"gauges\": {{"));
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n{pad}    \"{name}\": {v}"));
        }
        out.push_str(&format!("\n{pad}  }},\n"));
        out.push_str(&format!("{pad}  \"histograms\": {{"));
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n{pad}    \"{name}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"sum\": {}}}",
                h.count, h.min, h.max, h.p50, h.p95, h.p99, h.sum
            ));
        }
        out.push_str(&format!("\n{pad}  }}\n{pad}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("admission.grants");
        let b = reg.counter("admission.grants");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let g = reg.gauge("queue.depth");
        g.add(5);
        g.add(-2);
        g.set_max(2); // below current 3: no effect
        assert_eq!(reg.gauge("queue.depth").get(), 3);

        let h = reg.histogram("queue.wait_us");
        h.record(100);
        h.record(200);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("admission.grants"), Some(3));
        assert_eq!(snap.gauge("queue.depth"), Some(3));
        let hs = snap.histogram("queue.wait_us").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.min, 100);
        assert!(hs.p50 >= 100 && hs.max >= 200);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_json_is_balanced_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").inc();
        reg.counter("a.first").add(7);
        reg.gauge("depth").set(-2);
        reg.histogram("lat_us").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a.first", "snapshot sorts by name");
        let json = snap.to_json(2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"a.first\": 7"));
        assert!(json.contains("\"depth\": -2"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let json = MetricsSnapshot::default().to_json(0);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"counters\""));
    }
}
