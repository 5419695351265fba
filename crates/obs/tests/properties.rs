//! Property tests for the observability core: histogram bucket boundaries,
//! snapshot/diff determinism, and exporter validity on arbitrary metric
//! sequences.

use convoy_obs::export::{render_json, render_trace};
use convoy_obs::{bucket_index, bucket_lower_bound, json, Registry, SpanId, BUCKET_COUNT};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in a bucket whose bounds bracket it.
    #[test]
    fn bucket_brackets_value(v in 0u64..u64::MAX) {
        let idx = bucket_index(v);
        prop_assert!(idx < BUCKET_COUNT);
        prop_assert!(bucket_lower_bound(idx) <= v);
        if idx + 1 < BUCKET_COUNT {
            prop_assert!(v < bucket_lower_bound(idx + 1));
        }
    }

    /// Bucket assignment is monotone in the value.
    #[test]
    fn bucket_index_is_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }
}

/// Bucket edges: the last value of bucket `i` and the first value of bucket
/// `i + 1` differ by exactly one and map to adjacent buckets.
#[test]
fn bucket_edges_are_exact() {
    for idx in 1..BUCKET_COUNT - 1 {
        let first = bucket_lower_bound(idx);
        let next = bucket_lower_bound(idx + 1);
        assert_eq!(bucket_index(first), idx);
        assert_eq!(bucket_index(next - 1), idx);
        assert_eq!(bucket_index(next), idx + 1);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Counter(usize, u64),
    GaugeSet(usize, i64),
    GaugeMax(usize, i64),
    Histogram(usize, u64),
}

const NAMES: [&str; 4] = ["alpha", "beta.x", "gamma_ns", "delta"];

prop_compose! {
    fn arb_op()(kind in 0u8..4, name in 0usize..4, v in 0u64..u64::MAX, g in -1000i64..1000) -> Op {
        match kind {
            0 => Op::Counter(name, v % 1000),
            1 => Op::GaugeSet(name, g),
            2 => Op::GaugeMax(name, g),
            // Cap below 2^48 so u64 sums cannot saturate across a run
            // (saturation breaks diff additivity by design).
            _ => Op::Histogram(name, v % (1u64 << 48)),
        }
    }
}

fn apply(r: &Registry, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Counter(n, v) => r.counter_add(NAMES[n], v),
            Op::GaugeSet(n, v) => r.gauge_set(NAMES[n], v),
            Op::GaugeMax(n, v) => r.gauge_max(NAMES[n], v),
            Op::Histogram(n, v) => r.histogram_record(NAMES[n], v),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal operation sequences on independent registries produce equal
    /// snapshots and byte-equal JSON exports.
    #[test]
    fn snapshots_are_deterministic(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let a = Registry::new();
        let b = Registry::new();
        apply(&a, &ops);
        apply(&b, &ops);
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(render_json(&a.snapshot()), render_json(&b.snapshot()));
    }

    /// diff(after, before) applied over a common prefix isolates the suffix:
    /// counter and histogram totals of the diff equal a fresh registry that
    /// saw only the suffix.
    #[test]
    fn diff_isolates_the_suffix(
        prefix in proptest::collection::vec(arb_op(), 0..32),
        suffix in proptest::collection::vec(arb_op(), 0..32),
    ) {
        let full = Registry::new();
        apply(&full, &prefix);
        let before = full.snapshot();
        apply(&full, &suffix);
        let diff = full.snapshot().diff(&before);

        let fresh = Registry::new();
        apply(&fresh, &suffix);
        let only_suffix = fresh.snapshot();

        for (name, value) in &only_suffix.counters {
            prop_assert_eq!(diff.counter(name), *value);
        }
        for (name, h) in &only_suffix.histograms {
            let d = diff.histogram(name).expect("diffed histogram present");
            prop_assert_eq!(d.count, h.count);
            prop_assert_eq!(d.sum, h.sum);
            prop_assert_eq!(&d.buckets, &h.buckets);
        }
    }

    /// The JSON exporter's output always parses and validates against the
    /// checked-in metrics schema.
    #[test]
    fn json_export_is_schema_valid(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let r = Registry::new();
        apply(&r, &ops);
        let doc = render_json(&r.snapshot());
        let value = json::parse(&doc).expect("export parses");
        let schema_text = std::fs::read_to_string(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/metrics-v1.schema.json"),
        )
        .expect("schema file readable");
        let schema = json::parse(&schema_text).expect("schema parses");
        if let Err(errors) = json::validate(&schema, &value) {
            prop_assert!(false, "schema violations: {errors:?}");
        }
    }
}

/// Span trees survive the trace exporter and its validator, including
/// mixtures of live, synthetic and unclosed spans across threads.
#[test]
fn trace_export_of_a_worker_span_tree_validates() {
    let r = std::sync::Arc::new(Registry::new());
    let root = r.span_start("root", SpanId::NONE);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let r = r.clone();
            scope.spawn(move || {
                let s = r.span_start("worker", root);
                r.histogram_record("work_ns", 12);
                r.span_end(s);
            });
        }
    });
    r.span_at("synthetic", root, 1, 2);
    // Root intentionally left open: the exporter must still emit a
    // well-formed complete event for it.
    let doc = render_trace(&r.spans());
    let value = json::parse(&doc).expect("trace parses");
    assert_eq!(json::validate_trace(&value), Ok(6));
}
