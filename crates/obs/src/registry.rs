//! The concrete [`Registry`]: ordered in-memory metric storage with
//! deterministic snapshot/diff semantics.
//!
//! All state lives behind one `Mutex`; metric maps are `BTreeMap`s keyed by
//! `&'static str`, so iteration order — and therefore every export — is the
//! lexicographic name order regardless of registration order or thread
//! interleaving. Updating an already-registered metric allocates nothing
//! (the map node exists; histograms are fixed arrays), which keeps a live
//! registry legal inside the suite's allocation-free hot paths once warmed.

use crate::histogram::{bucket_index, bucket_lower_bound, HistogramSnapshot, BUCKET_COUNT};
use crate::SpanId;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Clone, Copy)]
struct HistogramCells {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }
}

impl HistogramCells {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        let bucket = &mut self.buckets[bucket_index(value)];
        *bucket = bucket.saturating_add(1);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (bucket_lower_bound(i), *c))
                .collect(),
        }
    }
}

struct SpanCell {
    name: &'static str,
    parent: u64,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    closed: bool,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, HistogramCells>,
    spans: Vec<SpanCell>,
    threads: Vec<ThreadId>,
}

impl Inner {
    /// Stable small integer for the calling thread (registration order).
    fn tid(&mut self, thread: ThreadId) -> u32 {
        let index = match self.threads.iter().position(|t| *t == thread) {
            Some(i) => i,
            None => {
                self.threads.push(thread);
                self.threads.len() - 1
            }
        };
        u32::try_from(index).unwrap_or(u32::MAX)
    }
}

/// The one recorder: collects counters, gauges, histograms and spans, and
/// produces deterministic [`MetricsSnapshot`]s. Share it as an
/// `Arc<Registry>` and record through an [`crate::Obs`] handle:
/// [`crate::Obs::registry`] forwards everything, [`crate::Obs::spans_only`]
/// only the spans.
pub struct Registry {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry whose span clock starts now.
    pub fn new() -> Registry {
        Registry {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            // A panic while holding the lock cannot leave the maps in a
            // broken state (every update is a single scalar write), so
            // poisoning is ignored rather than propagated into callers that
            // only wanted to bump a counter.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Overwrites the counter `name` with an absolute value. This is the
    /// import path for the typed stats views (`CmcStats`, `StreamStats`, …):
    /// storing a view again replaces its earlier values, so import is
    /// idempotent.
    pub fn counter_store(&self, name: &'static str, value: u64) {
        self.lock().counters.insert(name, value);
    }

    /// Reads one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Deterministic point-in-time copy of all metrics (spans excluded; see
    /// [`Registry::spans`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// All spans recorded so far, in creation order. Spans still open at
    /// export time appear with `closed = false` and the duration they had
    /// accumulated when this was called.
    pub fn spans(&self) -> Vec<SpanSnapshot> {
        let now = self.now_ns();
        let inner = self.lock();
        inner
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| SpanSnapshot {
                id: i as u64 + 1,
                parent: s.parent,
                name: s.name.to_string(),
                tid: s.tid,
                start_ns: s.start_ns,
                dur_ns: if s.closed {
                    s.dur_ns
                } else {
                    now.saturating_sub(s.start_ns)
                },
                closed: s.closed,
            })
            .collect()
    }

    /// Total duration in nanoseconds of every *closed* span named `name`
    /// (saturating; 0 when there is none). This is how callers read a stage
    /// time off a run: the span is the clock.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.closed && s.name == name)
            .fold(0u64, |total, s| total.saturating_add(s.dur_ns))
    }

    /// Adds `delta` to the monotonic counter `name` (saturating).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        let cell = inner.counters.entry(name).or_insert(0);
        *cell = cell.saturating_add(delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        self.lock().gauges.insert(name, value);
    }

    /// Records one observation into the log-scale histogram `name`.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Nanoseconds since this registry's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (a root for [`SpanId::NONE`]),
    /// timestamped now.
    pub fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let tid = inner.tid(std::thread::current().id());
        inner.spans.push(SpanCell {
            name,
            parent: parent.0,
            tid,
            start_ns,
            dur_ns: 0,
            closed: false,
        });
        SpanId(inner.spans.len() as u64)
    }

    /// Closes a span opened by [`Registry::span_start`]; ending
    /// [`SpanId::NONE`] or an already closed span does nothing.
    pub fn span_end(&self, span: SpanId) {
        if span.is_none() {
            return;
        }
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let index = (span.0 - 1) as usize;
        if let Some(cell) = inner.spans.get_mut(index) {
            if !cell.closed {
                cell.dur_ns = end_ns.saturating_sub(cell.start_ns);
                cell.closed = true;
            }
        }
    }

    /// Records a closed, pre-timed span: `start_ns`..`start_ns + dur_ns`
    /// relative to this registry's epoch.
    pub fn span_at(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        let mut inner = self.lock();
        let tid = inner.tid(std::thread::current().id());
        inner.spans.push(SpanCell {
            name,
            parent: parent.0,
            tid,
            start_ns,
            dur_ns,
            closed: true,
        });
        SpanId(inner.spans.len() as u64)
    }
}

/// One exported span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// 1-based creation-order id.
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Small integer identifying the recording thread.
    pub tid: u32,
    /// Start, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// False when the span was never ended.
    pub closed: bool,
}

/// Deterministic point-in-time copy of a registry's metrics. Equal operation
/// sequences produce equal snapshots (and byte-equal JSON exports),
/// regardless of thread scheduling between the operations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Reads one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads one gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Reads one histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// counts/sums subtract (saturating — a reset registry diffs to zero,
    /// not to garbage); gauges keep their current value. Names absent from
    /// `self` are dropped.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    let before = earlier.counters.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(before))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let diffed = match earlier.histograms.get(k) {
                        Some(before) => v.diff(before),
                        None => v.clone(),
                    };
                    (k.clone(), diffed)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add("b", u64::MAX);
        r.counter_add("b", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), u64::MAX);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn counter_store_overwrites() {
        let r = Registry::new();
        r.counter_add("a", 7);
        r.counter_store("a", 3);
        assert_eq!(r.counter("a"), 3);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let r = Registry::new();
        r.gauge_set("g", 5);
        r.gauge_set("g", -2);
        let s = r.snapshot();
        assert_eq!(s.gauge("g"), -2);
    }

    #[test]
    fn histogram_totals_and_buckets() {
        let r = Registry::new();
        for v in [0u64, 1, 1, 5, 1000] {
            r.histogram_record("h", v);
        }
        let s = r.snapshot();
        let h = s.histogram("h").expect("histogram recorded");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1007);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0 → bucket 0; 1,1 → [1,2); 5 → [4,8); 1000 → [512,1024).
        assert_eq!(h.buckets, vec![(0, 1), (1, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn span_tree_records_parents_and_closure() {
        let r = Registry::new();
        let root = r.span_start("root", SpanId::NONE);
        let child = r.span_start("child", root);
        r.span_end(child);
        r.span_at("synthetic", root, 10, 20);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert!(!spans[0].closed);
        assert_eq!(spans[1].parent, root.0);
        assert!(spans[1].closed);
        assert_eq!(spans[2].start_ns, 10);
        assert_eq!(spans[2].dur_ns, 20);
        r.span_end(root);
        assert!(r.spans()[0].closed);
    }

    #[test]
    fn span_total_sums_closed_spans_by_name() {
        let r = Registry::new();
        r.span_at("stage", SpanId::NONE, 0, 5);
        r.span_at("stage", SpanId::NONE, 10, 7);
        r.span_at("other", SpanId::NONE, 0, 100);
        r.span_at("big", SpanId::NONE, 0, u64::MAX);
        r.span_at("big", SpanId::NONE, 0, 1);
        let open = r.span_start("stage", SpanId::NONE);
        assert_eq!(r.span_total_ns("stage"), 12, "open spans are excluded");
        assert_eq!(r.span_total_ns("big"), u64::MAX, "saturates");
        assert_eq!(r.span_total_ns("missing"), 0);
        r.span_end(open);
        assert!(r.span_total_ns("stage") >= 12);
    }

    #[test]
    fn double_end_keeps_first_duration() {
        let r = Registry::new();
        let s = r.span_start("s", SpanId::NONE);
        r.span_end(s);
        let first = r.spans()[0].dur_ns;
        r.span_end(s);
        assert_eq!(r.spans()[0].dur_ns, first);
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let r = Registry::new();
        r.counter_add("c", 5);
        r.histogram_record("h", 3);
        let before = r.snapshot();
        r.counter_add("c", 2);
        r.histogram_record("h", 3);
        r.histogram_record("h", 100);
        r.gauge_set("g", 4);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("c"), 2);
        assert_eq!(d.gauge("g"), 4);
        let h = d.histogram("h").expect("histogram present");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 103);
        assert_eq!(h.buckets, vec![(2, 1), (64, 1)]);
    }
}
