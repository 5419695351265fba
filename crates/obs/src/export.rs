//! Exporters: human text table, JSON snapshot, and Chrome `trace_event`
//! span dump.
//!
//! All three are deterministic functions of their input (map iteration is
//! name-ordered, numbers are formatted without floats where exactness
//! matters), so equal snapshots render byte-equal output — the property the
//! CLI's resume-equivalence smoke test relies on.

use crate::registry::{MetricsSnapshot, SpanSnapshot};

/// Renders a snapshot as the human `--stats` table: a `stats:` header, then
/// one aligned `name value` line per counter and gauge and a summary line
/// per histogram, all in lexicographic name order.
pub fn render_text(snapshot: &MetricsSnapshot) -> String {
    let width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("stats:\n");
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("  {name:width$}  {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("  {name:width$}  {value}\n"));
    }
    for (name, h) in &snapshot.histograms {
        out.push_str(&format!(
            "  {name:width$}  count {} min {} max {} mean {:.1}\n",
            h.count,
            h.min,
            h.max,
            h.mean()
        ));
    }
    out
}

/// Renders a snapshot as the versioned JSON document described by
/// `schemas/metrics-v1.schema.json`. Deterministic: keys are name-ordered
/// and all numbers are integers.
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"counters\": {");
    push_entries(&mut out, snapshot.counters.iter(), |out, v| {
        out.push_str(&v.to_string());
    });
    out.push_str("},\n  \"gauges\": {");
    push_entries(&mut out, snapshot.gauges.iter(), |out, v| {
        out.push_str(&v.to_string());
    });
    out.push_str("},\n  \"histograms\": {");
    push_entries(&mut out, snapshot.histograms.iter(), |out, h| {
        out.push_str(&format!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            h.count, h.sum, h.min, h.max
        ));
        for (i, (bound, count)) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{bound}, {count}]"));
        }
        out.push_str("]}");
    });
    out.push_str("}\n}\n");
    out
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, value) in entries {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json_string(name));
        out.push_str(": ");
        render(out, value);
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Renders spans in Chrome `trace_event` JSON (the object form with a
/// `traceEvents` array of complete `"X"` events), loadable in Perfetto and
/// `chrome://tracing`. Timestamps are microseconds with nanosecond
/// precision, relative to the registry epoch; span hierarchy is conveyed by
/// time containment per track (as the format defines it) and additionally
/// recorded in `args.id`/`args.parent`.
pub fn render_trace(spans: &[SpanSnapshot]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": \"convoy\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            json_string(&span.name),
            span.tid,
            micros(span.start_ns),
            micros(span.dur_ns),
            span.id,
            span.parent
        ));
    }
    if !spans.is_empty() {
        out.push('\n');
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Exact decimal microseconds from nanoseconds (no float rounding).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, SpanId};

    #[test]
    fn text_table_is_sorted_and_aligned() {
        let r = Registry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        r.gauge_set("z.gauge", -3);
        r.histogram_record("m.hist", 10);
        let text = render_text(&r.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "stats:");
        assert!(lines[1].starts_with("  a.first"));
        assert!(lines[2].starts_with("  b.second"));
        assert!(lines[3].starts_with("  z.gauge"));
        assert!(lines[4].contains("count 1 min 10 max 10 mean 10.0"));
    }

    #[test]
    fn empty_snapshot_renders_header_only() {
        assert_eq!(render_text(&MetricsSnapshot::default()), "stats:\n");
    }

    #[test]
    fn json_export_parses_and_round_trips_values() {
        let r = Registry::new();
        r.counter_add("c\"quoted", 7);
        r.gauge_set("g", -4);
        r.histogram_record("h", 3);
        let doc = render_json(&r.snapshot());
        let v = crate::json::parse(&doc).expect("exporter output parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("c\"quoted"))
                .and_then(|n| n.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(|n| n.as_f64()),
            Some(-4.0)
        );
    }

    #[test]
    fn json_export_is_deterministic_across_registries() {
        let build = || {
            let r = Registry::new();
            r.counter_add("x", 1);
            r.histogram_record("h", 9);
            r.gauge_set("g", 2);
            render_json(&r.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn trace_export_is_wellformed() {
        let r = Registry::new();
        let root = r.span_start("root", SpanId::NONE);
        r.span_at("child", root, 5, 10);
        r.span_end(root);
        let doc = render_trace(&r.spans());
        let v = crate::json::parse(&doc).expect("trace parses");
        assert!(crate::json::validate_trace(&v).is_ok());
    }

    #[test]
    fn micros_formats_exactly() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
